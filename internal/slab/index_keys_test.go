package slab_test

import (
	"fmt"
	"net/netip"
	"testing"

	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/ipnet"
	"vgprs/internal/slab"
)

// callKey has the shape and the hash of the gatekeeper's charging-record key
// (h323.gkCallKey, unexported there).
type callKey struct {
	caller gsmid.PackedDigits
	ref    uint16
}

func hashCallKey(k callKey) uint64 { return slab.HashUint64(k.caller.Hash() ^ uint64(k.ref)) }

func imsi(i int) gsmid.IMSI     { return gsmid.IMSI(fmt.Sprintf("46692%010d", i+1)) }
func msisdn(i int) gsmid.MSISDN { return gsmid.MSISDN(fmt.Sprintf("8869%08d", i+1)) }

// probeCase fills one Index with the first n keys of a shape and reports its
// probe statistics; the closure hides the key type.
type probeCase struct {
	name string
	fill func(n int) (mean float64, cluster, capacity int)
}

func shape[K comparable](name string, hash func(K) uint64, key func(i int) K) probeCase {
	return probeCase{name, func(n int) (float64, int, int) {
		x := slab.NewIndex[K](hash)
		for i := 0; i < n; i++ {
			x.Put(key(i), slab.Handle(i+1))
		}
		if x.Len() != n {
			panic(fmt.Sprintf("%s: %d distinct keys of %d", name, x.Len(), n))
		}
		mean, cluster := x.ProbeStats()
		return mean, cluster, x.Cap()
	}}
}

// TestIndexProbeLengths fills a table with every key shape a node uses, in
// the sequential order a population is provisioned in, and bounds what a
// lookup pays: the home slot is the high word of a multiply, so it depends
// on the top bits of the hash, and FNV-1a over "MS0000001 … MS0030000"
// leaves those nearly constant. Without the mixing step in Index.home the
// string shapes collapse into a few clusters thousands of cells long.
//
// The longest cluster of a linear-probing table under uniform hashing is
// about ln n / (α − 1 − ln α) cells: ~120 at the 64 % load 30,000 entries
// sit at, ~280 at 3/4 — hence the two limits.
func TestIndexProbeLengths(t *testing.T) {
	str := func(format string) func(int) string {
		return func(i int) string { return fmt.Sprintf(format, i+1) }
	}
	base, _ := ipnet.V4Key(netip.MustParseAddr("10.1.0.0"))
	cases := []probeCase{
		shape("ms name MS%07d", slab.HashString, str("MS%07d")),
		shape("ms name MS-%d", slab.HashString, str("MS-%d")),
		shape("ms name ms-%07d", slab.HashString, str("ms-%07d")),
		shape("imsi", gsmid.PackedDigits.Hash, func(i int) gsmid.PackedDigits { return imsi(i).Pack() }),
		shape("msisdn", gsmid.PackedDigits.Hash, func(i int) gsmid.PackedDigits { return msisdn(i).Pack() }),
		shape("pdp address", slab.HashUint32, func(i int) uint32 { return base + uint32(i) }),
		shape("tlli", slab.HashUint32, func(i int) uint32 { return uint32(gsmid.LocalTLLI(gsmid.PTMSI(i + 1))) }),
		shape("tid", slab.HashUint64, func(i int) uint64 { return uint64(gtp.MakeTID(imsi(i), 5)) }),
		shape("call key", hashCallKey, func(i int) callKey { return callKey{msisdn(i).Pack(), uint16(i)} }),
	}
	check := func(c probeCase, n, clusterLimit int) (capacity int) {
		mean, cluster, capacity := c.fill(n)
		t.Logf("%-16s %6d/%d: mean probe %.2f, longest cluster %d", c.name, n, capacity, mean, cluster)
		if mean > 3 || cluster > clusterLimit {
			t.Errorf("%s at %d/%d: mean probe %.2f (limit 3), longest cluster %d (limit %d)",
				c.name, n, capacity, mean, cluster, clusterLimit)
		}
		return capacity
	}
	for _, c := range cases {
		capacity := check(c, 30000, 128)
		// The fullest point of the step 30,000 sits in: one more Put grows.
		if got := check(c, 3*capacity/4, 256); got != capacity {
			t.Fatalf("%s: %d entries took %d cells, not %d", c.name, 3*capacity/4, got, capacity)
		}
	}
}

// benchCycle measures one Delete + Get + Put on a table holding n entries —
// a subscriber leaving, a lookup, a subscriber arriving — with keys taken in
// a scattered order. The population is constant, so the table never grows
// inside the loop and the cycle must not allocate; B/entry is what the
// table's arrays cost per resident key at that population.
func benchCycle[K comparable](b *testing.B, n int, hash func(K) uint64, key func(i int) K) {
	keys := make([]K, n)
	x := slab.NewIndex[K](hash)
	for i := range keys {
		keys[i] = key(i)
		x.Put(keys[i], slab.Handle(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[(i*7919)%n]
		x.Delete(k)
		if x.Get(keys[(i*104729)%n]) == 0 && x.Get(k) != 0 {
			b.Fatal("lookup disagrees with the cycle")
		}
		x.Put(k, slab.Handle(i+1))
	}
	b.ReportMetric(float64(x.Bytes())/float64(n), "B/entry")
	b.ReportMetric(100*float64(n)/float64(x.Cap()), "%load")
}

// BenchmarkIndexCycle is `make bench-slab`: the number to beat for the next
// change to index.go, at a small world's population, attach_storm's, and the
// headline one.
func BenchmarkIndexCycle(b *testing.B) {
	for _, n := range []int{600, 30000, 1000000} {
		b.Run(fmt.Sprintf("uint32/%d", n), func(b *testing.B) {
			benchCycle(b, n, slab.HashUint32, func(i int) uint32 { return uint32(gsmid.LocalTLLI(gsmid.PTMSI(i + 1))) })
		})
		b.Run(fmt.Sprintf("packed/%d", n), func(b *testing.B) {
			benchCycle(b, n, gsmid.PackedDigits.Hash, func(i int) gsmid.PackedDigits { return imsi(i).Pack() })
		})
		b.Run(fmt.Sprintf("string/%d", n), func(b *testing.B) {
			benchCycle(b, n, slab.HashString, func(i int) string { return fmt.Sprintf("MS%07d", i+1) })
		})
	}
}
