package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/types"
	"github.com/ares-storage/ares/internal/workload"
)

// workloadSpec is one traffic mix against one cluster shape.
type workloadSpec struct {
	name      string
	servers   int
	start     ares.Config // the per-key template every key starts on (ID and Servers are filled in)
	valueSize int
	writeFrac float64
	keys      int
	theta     float64 // zipfian skew; 0 draws keys uniformly
	fsync     bool
	rate      float64 // open-loop offered load, ops/s
	// walk is the configuration the reconfigurer alternates keys with during
	// the timed window, starting walkRate reconfigurations a second, one at
	// a time; nil means no reconfiguration under load.
	walk     *ares.Config
	walkRate float64
}

var workloads = []workloadSpec{
	{
		name: "abd-small-read", servers: 3,
		start:     ares.Config{Algorithm: ares.ABD},
		valueSize: 1 << 10, writeFrac: 0.10, keys: 4096, theta: 0.99,
		fsync: false, rate: 400,
	},
	{
		name: "treas-large-write", servers: 5,
		start:     ares.Config{Algorithm: ares.TREAS, K: 3, Delta: 8},
		valueSize: 64 << 10, writeFrac: 0.70, keys: 256,
		fsync: true, rate: 100,
	},
	{
		name: "reconfig-under-load", servers: 5,
		start:     ares.Config{Algorithm: ares.ABD},
		valueSize: 4 << 10, writeFrac: 0.30, keys: 512,
		fsync: false, rate: 150,
		walk: &ares.Config{Algorithm: ares.TREAS, K: 3, Delta: 8}, walkRate: 20,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// opDraws is the seeded input stream of one generator: which key each
// operation touches and whether it writes. Kinds are dealt from a shuffled
// deck of 100, so every 100 operations hold exactly the workload's write
// share and a run's sample counts do not depend on luck.
type opDraws struct {
	rng  *rand.Rand
	keys workload.KeyChooser
	deck []bool
	next int
}

func newOpDraws(w workloadSpec, seed int64) *opDraws {
	d := &opDraws{rng: rand.New(rand.NewSource(seed)), deck: make([]bool, 100)}
	for i := 0; i < int(w.writeFrac*100+0.5); i++ {
		d.deck[i] = true
	}
	d.next = len(d.deck)
	if w.theta > 0 {
		d.keys = workload.NewZipfianChooser(w.keys, w.theta, d.rng.Int63())
	} else {
		d.keys = workload.NewUniformChooser(w.keys, d.rng.Int63())
	}
	return d
}

func (d *opDraws) draw() (key int, write bool) {
	if d.next == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	write = d.deck[d.next]
	d.next++
	return d.keys.Next(), write
}

// Values. Every written value starts with a 16-byte id unique in the run;
// the remaining bytes are a keystream derived from the id alone. A read is
// checked by regenerating the body from the id it carries, and the history
// records only the id.

const idLen = 16

// valueID names the value written by operation seq of stream: distinct
// streams map to distinct first halves (splitmix64 is a bijection).
func valueID(seed int64, stream, seq uint64) [idLen]byte {
	var id [idLen]byte
	binary.BigEndian.PutUint64(id[:8], splitmix(uint64(seed)^stream))
	binary.BigEndian.PutUint64(id[8:], seq)
	return id
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keystream is the id-derived byte stream that fills a value after its id.
type keystream struct{ s uint64 }

func newKeystream(id []byte) keystream {
	return keystream{binary.BigEndian.Uint64(id[:8]) ^ binary.BigEndian.Uint64(id[8:])*0x9e3779b97f4a7c15}
}

func (k *keystream) word() [8]byte {
	var w [8]byte
	k.s = splitmix(k.s)
	binary.LittleEndian.PutUint64(w[:], k.s)
	return w
}

func makeValue(size int, id [idLen]byte) types.Value {
	v := make(types.Value, size)
	copy(v, id[:])
	ks := newKeystream(id[:])
	for i := idLen; i < size; i += 8 {
		w := ks.word()
		copy(v[i:], w[:])
	}
	return v
}

// checkValue returns the id a read value carries, or an error when its body
// was not produced by makeValue. The empty value is the register's initial
// value and carries the empty id.
func checkValue(v types.Value, size int) (types.Value, error) {
	if len(v) == 0 {
		return nil, nil
	}
	if len(v) != size {
		return nil, fmt.Errorf("value of %d bytes, want %d", len(v), size)
	}
	ks := newKeystream(v[:idLen])
	for i := idLen; i < size; i += 8 {
		w := ks.word()
		if chunk := v[i:min(i+8, size)]; !bytes.Equal(chunk, w[:len(chunk)]) {
			return nil, fmt.Errorf("value %x: body bytes %d.. do not match its id", []byte(v[:idLen]), i)
		}
	}
	return v[:idLen:idLen], nil
}
