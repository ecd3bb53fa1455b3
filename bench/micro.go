package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/netsim"
	"vgprs/internal/rtp"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
)

// microRounds is how often each micro-benchmark repeats; it reports the
// median round.
const microRounds = 5

// slabRecord stands in for a subscriber row: the key plus a cache line of
// payload, as the VLR/SGSN records have.
type slabRecord struct {
	key  gsmid.PackedDigits
	data [56]byte
}

// slabMicro times the public slab.Sharded and slab.Index calls every store
// makes, at the workload's residency: insert from empty up to n keys, look
// every key up at full residency, delete back to empty.
func slabMicro(seed int64, n int) (insertNS, lookupNS, deleteNS float64) {
	keys := make([]gsmid.PackedDigits, n)
	for i := range keys {
		keys[i] = netsim.SubscriberN(int(seed%1000)*1000 + i).IMSI.Pack()
	}
	// Small populations repeat the cycle, each on a fresh store: at small
	// residency the store's first chunks (1,024 rows per shard) are most of
	// what an insert costs, as they are for the small worlds themselves.
	cycles := min(1+100_000/n, 64)
	var ins, look, del []float64
	var sink *slabRecord
	for round := 0; round < microRounds; round++ {
		var tIns, tLook, tDel time.Duration
		for c := 0; c < cycles; c++ {
			recs := slab.NewSharded[slabRecord](8)
			idx := slab.NewIndex[gsmid.PackedDigits](gsmid.PackedDigits.Hash)
			t0 := time.Now()
			for _, k := range keys {
				h, rec := recs.Alloc(int(k.Hash() & 7))
				rec.key = k
				idx.Put(k, h)
			}
			t1 := time.Now()
			for _, k := range keys {
				sink = recs.Get(idx.Get(k))
			}
			t2 := time.Now()
			for _, k := range keys {
				h := idx.Get(k)
				idx.Delete(k)
				recs.Free(h)
			}
			t3 := time.Now()
			tIns += t1.Sub(t0)
			tLook += t2.Sub(t1)
			tDel += t3.Sub(t2)
			if recs.Len() != 0 || idx.Len() != 0 {
				panic("bench: slab micro-benchmark left records behind")
			}
		}
		calls := float64(n * cycles)
		ins = append(ins, float64(tIns.Nanoseconds())/calls)
		look = append(look, float64(tLook.Nanoseconds())/calls)
		del = append(del, float64(tDel.Nanoseconds())/calls)
	}
	_ = sink
	return median(ins), median(look), median(del)
}

// codecMicro replays one family's sampled messages through its public
// decode and encode entry points and checks that every sample survives the
// round trip byte for byte.
func codecMicro(family string, samples [][]byte) (encodeNS, decodeNS float64, err error) {
	if len(samples) == 0 {
		return 0, 0, nil
	}
	// decode(i) decodes sample i and keeps the message; encode(i) encodes
	// the kept message i into buf.
	var decode func(i int) error
	var encode func(i int) error
	var buf []byte
	if family == "rtp" {
		pkts := make([]rtp.Packet, len(samples))
		decode = func(i int) (err error) { pkts[i], err = rtp.UnmarshalView(samples[i]); return }
		encode = func(i int) error { buf = pkts[i].AppendTo(buf[:0]); return nil }
	} else {
		c := codecs[family]
		msgs := make([]sim.Message, len(samples))
		decode = func(i int) (err error) { msgs[i], err = c.unmarshal(samples[i]); return }
		encode = func(i int) (err error) { buf, err = c.append(buf[:0], msgs[i]); return }
	}
	// Small samples repeat so every round times at least ~20k messages.
	reps := 1 + 20_000/len(samples)
	timed := func(fn func(i int) error) (float64, error) {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range samples {
				if err := fn(i); err != nil {
					return 0, fmt.Errorf("%s sample %d: %w", family, i, err)
				}
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps*len(samples)), nil
	}
	var enc, dec []float64
	for round := 0; round < microRounds; round++ {
		d, err := timed(decode)
		if err != nil {
			return 0, 0, err
		}
		e, err := timed(encode)
		if err != nil {
			return 0, 0, err
		}
		dec, enc = append(dec, d), append(enc, e)
	}
	for i := range samples {
		if err := encode(i); err != nil || !bytes.Equal(buf, samples[i]) {
			return 0, 0, fmt.Errorf("%s sample %d does not survive decode and encode", family, i)
		}
	}
	return median(enc), median(dec), nil
}

// token is the message the kernel replay passes around.
type token struct{}

func (token) Name() string { return "TOKEN" }

// relay is a no-op node of the kernel replay: it forwards every token it
// receives over its next outgoing link until the shared budget is spent.
type relay struct {
	id     sim.NodeID
	out    []sim.NodeID
	next   int
	budget *int
}

func (r *relay) ID() sim.NodeID { return r.id }

func (r *relay) Receive(env *sim.Env, _ sim.NodeID, _ string, msg sim.Message) {
	if *r.budget <= 0 || len(r.out) == 0 {
		return
	}
	*r.budget--
	to := r.out[r.next%len(r.out)]
	r.next++
	env.Send(r.id, to, msg)
}

// kernelEvents caps the events one replay round passes.
const kernelEvents = 1_000_000

// kernelMicro measures the event engine alone: it rebuilds the traced
// network's nodes and links with no-op nodes, keeps `inflight` tokens moving
// over them through Env.Send and Env.Run, and returns the host time per
// delivered event. Subtracting it from a layer's busy time per delivery
// leaves the node's own work.
func kernelMicro(seed int64, links map[linkKey]string, events uint64, inflight int) float64 {
	if len(links) == 0 || events == 0 {
		return 0
	}
	if events > kernelEvents {
		events = kernelEvents
	}
	lat := netsim.DefaultLatencies()
	latency := map[string]time.Duration{
		"Um": lat.Um, "Abis": lat.Abis, "A": lat.A, "B": lat.SS7, "D": lat.SS7,
		"Gr": lat.SS7, "Gc": lat.SS7, "Gb": lat.Gb, "Gn": lat.Gn, "Gi": lat.Gi, "IP": lat.LAN,
	}
	keys := make([]linkKey, 0, len(links))
	for k := range links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var rounds []float64
	for round := 0; round < microRounds; round++ {
		env := sim.NewEnv(seed)
		budget := int(events)
		nodes := map[sim.NodeID]*relay{}
		node := func(id sim.NodeID) *relay {
			n := nodes[id]
			if n == nil {
				n = &relay{id: id, budget: &budget}
				nodes[id] = n
				env.AddNode(n)
			}
			return n
		}
		for _, k := range keys {
			from := node(k.from)
			node(k.to)
			from.out = append(from.out, k.to)
			if !env.HasLink(k.from, k.to) {
				env.Connect(k.from, k.to, links[k], latency[links[k]])
			}
		}
		t0 := time.Now()
		for i := 0; i < inflight; i++ {
			k := keys[i%len(keys)]
			env.Send(k.from, k.to, token{})
		}
		env.Run()
		d := time.Since(t0)
		rounds = append(rounds, float64(d.Nanoseconds())/float64(env.Delivered()))
	}
	return median(rounds)
}
