package experiments

import (
	"runtime"
	"testing"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gtp"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/vmsc"
)

// TestBytesPerSubscriberBudget is the memory-residency gate for the slab-
// backed core: attach a large population end to end (VLR registration, HLR
// record, GPRS attach, PDP context) and hold the measured heap cost per
// subscriber under a committed budget. The 100k budget is 15 % over the
// measured 618 B/sub — a live-heap difference after a forced collection,
// which repeats run to run — so a new per-subscriber heap object, an index
// that stops recycling or a table back at 38 % load trips the gate. The 10k
// point (~1,300 B/sub: a smaller population amortises the index tables and
// symbol interners over fewer subscribers) keeps roughly 2x, for the race
// detector's instrumentation.
//
// The same run asserts the storage fully recycles: after detach-all plus
// cancel-all, every slab slot must be back on a free-list (zero live
// records) and every index entry gone (zero imbalance).
func TestBytesPerSubscriberBudget(t *testing.T) {
	subs, budget := 100_000, 710.0
	if testing.Short() || raceEnabled {
		// Race instrumentation roughly triples per-object cost (measured
		// ~2,450 B/sub vs ~1,300 plain at 10k).
		subs, budget = 10_000, 3_200.0
	}
	p, err := RunScale(7, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("subs=%d bytes/sub=%.0f attach/s=%.0f call-setup/s=%.0f churn/s=%.0f",
		p.Subs, p.BytesPerSub, p.AttachPerSec, p.CallSetupPerSec, p.ChurnPerSec)
	if p.Rejects != 0 {
		t.Errorf("rejects = %d, want 0", p.Rejects)
	}
	if p.BytesPerSub > budget {
		t.Errorf("bytes/subscriber = %.0f, budget %.0f", p.BytesPerSub, budget)
	}
	if p.DetachLeftover != 0 {
		t.Errorf("records still live after detach-all: %d", p.DetachLeftover)
	}
	if p.SlabImbalance != 0 {
		t.Errorf("slab imbalance after detach-all: %d", p.SlabImbalance)
	}
}

// TestFullStackBytesPerSubscriberBudget is the memory gate for the full
// Fig 2(b) stack: the same population attached through a real VMSC (MS
// table with the GPRS client state inline), VLR, HLR, SGSN, GGSN,
// gatekeeper, and directory at once. The budget carries ~1.17x headroom over
// the measured 985 B/sub at 100k; the run itself asserts completeness
// (every subscriber registered at the VMSC and the gatekeeper), end-to-end
// call setup at full residency, and full recycling after cancel-all.
func TestFullStackBytesPerSubscriberBudget(t *testing.T) {
	subs, budget := 100_000, 1_150.0
	if testing.Short() || raceEnabled {
		// Slab chunks dominate the full-stack cost, so race instrumentation
		// does not move it (measured 3,470 B/sub plain and race at 10k).
		subs, budget = 10_000, 4_200.0
	}
	p, err := RunScaleFull(7, subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("subs=%d bytes/sub=%.0f attach/s=%.0f call-setup/s=%.0f",
		p.Subs, p.BytesPerSub, p.AttachPerSec, p.CallSetupPerSec)
	if p.Rejects != 0 {
		t.Errorf("rejects = %d, want 0", p.Rejects)
	}
	if p.BytesPerSub > budget {
		t.Errorf("bytes/subscriber = %.0f, budget %.0f", p.BytesPerSub, budget)
	}
	if p.DetachLeftover != 0 {
		t.Errorf("records still live after cancel-all: %d", p.DetachLeftover)
	}
	if p.SlabImbalance != 0 {
		t.Errorf("slab imbalance after cancel-all: %d", p.SlabImbalance)
	}
}

// TestScaleFullSmall is the fast canary for the full-stack harness: a
// population small enough for every test run, with RunScaleFull's own
// completeness checks (registration, call setup, recycling) doing the
// asserting.
func TestScaleFullSmall(t *testing.T) {
	p, err := RunScaleFull(3, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.RegisteredVMSC != 500 || p.GKRegistered != 500 || p.ActivePDP != 500 {
		t.Fatalf("population incomplete: %+v", p)
	}
	if p.DetachLeftover != 0 || p.SlabImbalance != 0 {
		t.Fatalf("leak after cancel-all: leftover=%d imbalance=%d", p.DetachLeftover, p.SlabImbalance)
	}
}

// TestScaleSmall exercises the whole scale harness at a size cheap enough
// for every test run, including the error paths RunScale itself checks
// (population completeness) — a fast canary in front of the big gate.
func TestScaleSmall(t *testing.T) {
	p, err := RunScale(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p.Registered != 500 || p.Attached != 500 || p.ActivePDP != 500 {
		t.Fatalf("population incomplete: %+v", p)
	}
	if p.DetachLeftover != 0 || p.SlabImbalance != 0 {
		t.Fatalf("leak after detach: leftover=%d imbalance=%d", p.DetachLeftover, p.SlabImbalance)
	}
}

// TestHostedAttachAllocatesNoClient checks that a resident subscriber is its
// slab rows and index cells and nothing else: with 5,000 resident (every
// arena that grows with the wave size at its high-water mark), attaching
// 1,000 more retains no heap beyond what the nodes' Footprint() accounts
// for, bar the one thing each subscriber brings from outside — the MS node
// name its radio messages carry (a 16-byte string the MS table and the SGSN
// share). A GPRS client object per subscriber, as the VMSC once allocated,
// is two objects and 192 bytes over.
func TestHostedAttachAllocatesNoClient(t *testing.T) {
	const resident, more = 5_000, 1_000
	trial := func() (heap, objs, stores float64) {
		f := newFullStack(3, resident+more)
		measure := func() (heap, objects uint64, stores float64) {
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			return m.HeapAlloc, m.HeapObjects, f.footprint(1).Sum()
		}
		for lo := 0; lo < resident; lo += more {
			if err := f.attachWave(lo, lo+more); err != nil {
				t.Fatal(err)
			}
		}
		heap0, objs0, stores0 := measure()
		if err := f.attachWave(resident, resident+more); err != nil {
			t.Fatal(err)
		}
		heap1, objs1, stores1 := measure()
		if f.load.accepts != resident+more {
			t.Fatalf("%d of %d registered", f.load.accepts, resident+more)
		}
		return float64(heap1) - float64(heap0), float64(objs1) - float64(objs0), stores1 - stores0
	}
	// The runtime's own allocations can only add to a reading (a stray 27 KB
	// shows up in about one run in five), so the best of three decides. 64
	// bytes a subscriber leaves room for the 16-byte name; a client object
	// per subscriber would be 200 over. The race detector's bookkeeping shows
	// up in HeapAlloc, so only the object count is checked under it.
	var heap, objs, stores float64
	for i := 0; i < 3; i++ {
		heap, objs, stores = trial()
		t.Logf("+%d subscribers: heap %+.0f B, stores %+.0f B, %+.0f objects", more, heap, stores, objs)
		if (heap <= 1.1*stores+64*more || raceEnabled) && objs <= 1.25*more {
			return
		}
	}
	t.Errorf("%d more subscribers retain %.0f B (stores %.0f B) in %.0f objects; want the stores plus one MS name each",
		more, heap, stores, objs)
}

// TestQuiescedHeapIsFootprint is the heap-level leak check: what a quiesced
// network holds is what its nodes' Footprint() says, and nothing else. 6,000
// subscribers attach in waves of 3,000 — above the transaction tables'
// release floor, so every table grows for a wave and gives the growth back —
// and the collected heap outside the footprints is compared with the same
// stack quiesced and empty (one wave attached and cancelled again, which
// sizes what never shrinks: the event queue's arrays, the VLR's MSRN map).
// The difference may be the 16-byte MS name each subscriber brings and
// allocator slack; one leaked 144-byte object per subscriber is over, and an
// untimed transaction per attach never taken out of its table fails the
// audit each reading starts with.
func TestQuiescedHeapIsFootprint(t *testing.T) {
	const resident, wave, nameBytes = 6_000, 3_000, 16
	trial := func() float64 {
		f := newFullStack(5, resident+wave)
		// outside is the collected heap beyond the nodes' footprints, checked
		// to belong to a quiesced network.
		outside := func() float64 {
			for _, node := range []interface {
				ID() sim.NodeID
				Audit(report func(kind string, n int))
			}{f.vmsc, f.vlr, f.hlr, f.sgsn, f.ggsn, f.gk} {
				node.Audit(func(kind string, n int) {
					if n != 0 {
						t.Fatalf("not quiesced: %s holds %d %s", node.ID(), n, kind)
					}
				})
			}
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc) - f.footprint(1).Sum()
		}
		if err := f.attachWave(resident, resident+wave); err != nil {
			t.Fatal(err)
		}
		f.cancelWave(resident, resident+wave)
		if left := f.leftover(); left != 0 {
			t.Fatalf("cancelled wave left %d records resident", left)
		}
		empty := outside()
		for lo := 0; lo < resident; lo += wave {
			if err := f.attachWave(lo, lo+wave); err != nil {
				t.Fatal(err)
			}
		}
		if f.load.accepts != resident+wave || f.vmsc.MSTable() != resident {
			t.Fatalf("%d accepts, %d resident, want %d and %d", f.load.accepts, f.vmsc.MSTable(), resident+wave, resident)
		}
		return (outside()-empty)/resident - nameBytes
	}
	// Best of three, as in TestHostedAttachAllocatesNoClient: the runtime's
	// own allocations can only add to a reading. Under the race detector
	// HeapAlloc carries its bookkeeping, so only the audits are checked.
	var perSub float64
	for i := 0; i < 3; i++ {
		perSub = trial()
		t.Logf("%d resident: %.1f B per subscriber outside the footprints and the MS names", resident, perSub)
		if perSub <= 64 || raceEnabled {
			return
		}
	}
	t.Errorf("a quiesced network holds %.1f B per subscriber outside its nodes' Footprint(), want at most 64", perSub)
}

// TestRecycledRowIgnoresLateAccept cancels a subscriber while its GPRS attach
// is in flight, lets another IMSI on the same handset take over the freed
// MS-table slot, and then delivers the answers meant for the first: its
// AttachAccept (still crossing a slow Gb link) and a stray ActivatePDPAccept.
// Both name the first subscriber's TLLI and must be dropped; the attach that
// was in flight must die with the row it belonged to (its procedure key is the
// row's generational handle), and the newcomer must register as if nothing
// had happened — with its own P-TMSI and PDP address.
func TestRecycledRowIgnoresLateAccept(t *testing.T) {
	const a, gbDelay, phone = 0, 5 * time.Millisecond, sim.NodeID("MS-X")
	b := a + 1
	for scaleIMSI(b).Pack().Hash()&7 != scaleIMSI(a).Pack().Hash()&7 {
		b++ // rows route to one of 8 shards by IMSI hash; a slot is reused within its shard
	}
	f := newFullStack(1, 16)
	f.env.Connect("VMSC-1", "SGSN-1", "Gb", gbDelay) // answers stay in flight long enough to act
	vm := f.vmsc
	at := func(d time.Duration) { f.env.RunUntil(d) }

	if err := f.attach(a, phone); err != nil {
		t.Fatal(err)
	}
	at(1 * time.Millisecond)
	rowA := vm.EntryHandle(scaleIMSI(a))
	if rowA.IsZero() || vm.PendingTransactions() == 0 {
		t.Fatalf("first subscriber not mid-attach: row %x, %d pending", rowA, vm.PendingTransactions())
	}
	f.env.Send("LOAD", "VLR-1", sigmap.CancelLocation{Invoke: 1, IMSI: scaleIMSI(a)})
	at(2 * time.Millisecond)
	if vm.EntryAlive(rowA) || vm.MSTable() != 0 {
		t.Fatalf("cancel mid-attach left the row: alive %v, table %d", vm.EntryAlive(rowA), vm.MSTable())
	}

	if err := f.attach(b, phone); err != nil {
		t.Fatal(err)
	}
	at(3 * time.Millisecond)
	rowB := vm.EntryHandle(scaleIMSI(b))
	if rowB.IsZero() || rowB == rowA || rowB.Shard() != rowA.Shard() || uint32(rowB) != uint32(rowA) {
		t.Fatalf("second subscriber's row %x does not reuse the slot of %x", rowB, rowA)
	}

	// The first AttachAccept lands at 2*gbDelay + ~0.5 ms, the newcomer's own
	// 2 ms later; in between, and again once the newcomer is registered, a
	// PDP accept for the first subscriber arrives too.
	stray := func() {
		pdu, err := gprs.WrapSM(gprs.ActivatePDPAccept{NSAPI: vmsc.NSAPISignalling, Address: "10.9.9.9"})
		if err != nil {
			t.Fatal(err)
		}
		f.env.Send("SGSN-1", "VMSC-1", gb.DLUnitdata{
			TLLI: gprs.NewClient(scaleIMSI(a), nil).TLLI(), MS: phone, PDU: pdu,
		})
	}
	at(2*gbDelay + time.Millisecond)
	if f.sgsn.Attached() != 2 {
		t.Fatalf("SGSN saw %d attaches, want both", f.sgsn.Attached())
	}
	stray()
	f.env.Run()
	stray()
	f.env.Run()

	addr, registered, ok := vm.Entry(scaleIMSI(b))
	want, _ := f.ggsn.AddressOf(gtp.MakeTID(scaleIMSI(b), vmsc.NSAPISignalling))
	if !ok || !registered || !addr.IsValid() || addr != want {
		t.Fatalf("second subscriber: registered %v at %v, its own PDP address is %v", registered, addr, want)
	}
	if f.load.accepts != 1 || f.load.rejects != 0 || f.gk.Registered() != 1 || vm.MSTable() != 1 {
		t.Fatalf("accepts %d rejects %d gatekeeper %d table %d, want 1 0 1 1",
			f.load.accepts, f.load.rejects, f.gk.Registered(), vm.MSTable())
	}
	if vm.EntryAlive(rowA) || vm.PendingTransactions() != 0 || vm.SlabImbalance() != 0 {
		t.Fatalf("leftovers: old row alive %v, %d pending, imbalance %d",
			vm.EntryAlive(rowA), vm.PendingTransactions(), vm.SlabImbalance())
	}
}
