package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/netsim"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/vmsc"
)

// budgetRun is the one large full-stack run both budget gates and the
// committed-point check read: 100k
// subscribers attached through a real VMSC (MS table with the GPRS client
// state inline), VLR, HLR, SGSN, GGSN, gatekeeper, and directory at once; 10k
// under -short and the race detector. The run itself asserts completeness
// (every subscriber registered at the VMSC and the gatekeeper), end-to-end
// call setup at full residency, and full recycling after cancel-all.
var budgetRun = sync.OnceValues(func() (ScaleFullPoint, error) {
	subs := 100_000
	if testing.Short() || raceEnabled {
		subs = 10_000
	}
	return RunScaleFull(7, subs, nil)
})

// checkBudgetRun fails t unless the budget run completed, rejected no
// subscriber and recycled every record after cancel-all.
func checkBudgetRun(t *testing.T) ScaleFullPoint {
	t.Helper()
	p, err := budgetRun()
	if err != nil {
		t.Fatal(err)
	}
	if p.Rejects != 0 {
		t.Errorf("rejects = %d, want 0", p.Rejects)
	}
	if p.DetachLeftover != 0 {
		t.Errorf("records still live after cancel-all: %d", p.DetachLeftover)
	}
	if p.SlabImbalance != 0 {
		t.Errorf("slab imbalance after cancel-all: %d", p.SlabImbalance)
	}
	return p
}

// TestBytesPerSubscriberBudget is the memory-residency gate for the four
// standard core nodes, the paper's §6 trade-off: what a registered mobile's
// VLR and HLR records, GPRS attach and signalling PDP context cost, read as
// VLR + HLR + SGSN + GGSN Footprint() on the full-stack run. It is exact
// accounting, the same on every run: 575.4 B/sub at 100k, 815.2 at 10k (a
// smaller population amortises the index tables over fewer subscribers).
// Both ceilings sit ~60 B above, so 64 more bytes per subscriber in any one
// node trips the gate.
func TestBytesPerSubscriberBudget(t *testing.T) {
	budget := 640.0
	if testing.Short() || raceEnabled {
		budget = 875.0
	}
	p := checkBudgetRun(t)
	b := p.Footprint
	core := b.VLR + b.HLR + b.SGSN + b.GGSN
	t.Logf("subs=%d core footprint=%.1f B/sub (VLR %.1f HLR %.1f SGSN %.1f GGSN %.1f)",
		p.Subs, core, b.VLR, b.HLR, b.SGSN, b.GGSN)
	if core > budget {
		t.Errorf("VLR+HLR+SGSN+GGSN footprint = %.1f B/subscriber, budget %.0f", core, budget)
	}
}

// TestFullStackBytesPerSubscriberBudget is the memory gate for the whole
// Fig 2(b) stack: the measured heap delta per subscriber on the budget run,
// with ~1.3x headroom over the 888 B/sub measured at 100k.
func TestFullStackBytesPerSubscriberBudget(t *testing.T) {
	budget := 1_150.0
	if testing.Short() || raceEnabled {
		// Slab chunks dominate the full-stack cost, so race instrumentation
		// does not move it (measured 1,591 B/sub plain and 1,592 race at 10k).
		budget = 2_000.0
	}
	p := checkBudgetRun(t)
	t.Logf("subs=%d bytes/sub=%.0f attach/s=%.0f call-setup/s=%.0f",
		p.Subs, p.BytesPerSub, p.AttachPerSec, p.CallSetupPerSec)
	if p.BytesPerSub > budget {
		t.Errorf("bytes/subscriber = %.0f, budget %.0f", p.BytesPerSub, budget)
	}
}

// TestBudgetRunMatchesCommittedScale holds the 100k budget run to the 100k
// point committed in BENCH_scale.json on every field a seed and a host cannot
// move: each node's Footprint() share (exact accounting: seeds 1 and 7 read
// the same bytes), the populations, rejects, call count and the cancel-all
// audit. Wall-clock rates and the heap delta are the host's and are not
// compared. Under -short and the race detector the run is 10k, which has no
// committed point.
func TestBudgetRunMatchesCommittedScale(t *testing.T) {
	p := checkBudgetRun(t)
	if p.Subs != 100_000 {
		t.Skipf("budget run is %d subscribers; the committed point is 100k", p.Subs)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Data []ScaleFullPoint `json:"data"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	type exact struct {
		Footprint                                      NodeBytes
		RegisteredVMSC, GKRegistered, ActivePDP        int
		Rejects, CallSetupOps, Leftover, SlabImbalance int
	}
	pick := func(q ScaleFullPoint) exact {
		return exact{q.Footprint, q.RegisteredVMSC, q.GKRegistered, q.ActivePDP,
			q.Rejects, q.CallSetupOps, q.DetachLeftover, q.SlabImbalance}
	}
	for _, c := range committed.Data {
		if c.Subs == p.Subs {
			if got, want := pick(p), pick(c); got != want {
				t.Errorf("budget run differs from BENCH_scale.json at %d subscribers:\n got  %+v\n want %+v", p.Subs, got, want)
			}
			return
		}
	}
	t.Fatalf("BENCH_scale.json has no %d-subscriber point", p.Subs)
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

// TestScaleSmall is the fast canary for the four standard core nodes on the
// full stack: at a population cheap enough for every test run, each of VLR,
// HLR, SGSN and GGSN holds exactly one record (and the SGSN one attach and
// one context) per registered subscriber and charges it in its Footprint(),
// and cancel-all takes every VLR, SGSN and GGSN record back out with the
// slab storage balanced. The HLR keeps its provisioned subscribers.
func TestScaleSmall(t *testing.T) {
	const subs = 500
	f := newFullStack(3, subs)
	if err := f.attachWave(0, subs); err != nil {
		t.Fatal(err)
	}
	if f.load.accepts != subs || f.load.rejects != 0 {
		t.Fatalf("%d accepts, %d rejects, want %d and 0", f.load.accepts, f.load.rejects, subs)
	}
	if f.VLR.Registered() != subs || f.HLR.Subscribers() != subs || f.SGSN.Attached() != subs ||
		f.SGSN.ActiveContexts() != subs || f.GGSN.ActiveContexts() != subs {
		t.Fatalf("population incomplete: VLR %d HLR %d SGSN attached %d contexts %d GGSN %d, want %d each",
			f.VLR.Registered(), f.HLR.Subscribers(), f.SGSN.Attached(), f.SGSN.ActiveContexts(),
			f.GGSN.ActiveContexts(), subs)
	}
	b := f.footprint(1.0 / subs)
	for node, bytes := range map[string]float64{"VLR": b.VLR, "HLR": b.HLR, "SGSN": b.SGSN, "GGSN": b.GGSN} {
		if bytes <= 0 {
			t.Errorf("%s footprint = %.1f B/subscriber with %d resident", node, bytes, subs)
		}
	}
	f.cancelWave(0, subs)
	if n := f.VLR.Registered() + f.SGSN.Attached() + f.SGSN.ActiveContexts() + f.GGSN.ActiveContexts(); n != 0 {
		t.Fatalf("leak after cancel-all: %d VLR/SGSN/GGSN records still live", n)
	}
	if n := f.VLR.SlabImbalance() + f.HLR.SlabImbalance() + f.SGSN.SlabImbalance() + f.GGSN.SlabImbalance(); n != 0 {
		t.Fatalf("slab imbalance after cancel-all: %d", n)
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
			if res := f.Residual(); res.Total() != 0 {
				t.Fatalf("not quiesced:\n%s", res.String())
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
		if f.load.accepts != resident+wave || f.VMSC.MSTable() != resident {
			t.Fatalf("%d accepts, %d resident, want %d and %d", f.load.accepts, f.VMSC.MSTable(), resident+wave, resident)
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
	imsi := func(i int) gsmid.IMSI { return netsim.SubscriberN(i).IMSI }
	b := a + 1
	for imsi(b).Pack().Hash()&7 != imsi(a).Pack().Hash()&7 {
		b++ // rows route to one of 8 shards by IMSI hash; a slot is reused within its shard
	}
	f := newFullStack(1, 16)
	f.Env.Connect("VMSC-1", "SGSN-1", "Gb", gbDelay) // answers stay in flight long enough to act
	vm := f.VMSC
	at := func(d time.Duration) { f.Env.RunUntil(d) }

	if err := f.attach(a, phone); err != nil {
		t.Fatal(err)
	}
	at(1 * time.Millisecond)
	rowA := vm.EntryHandle(imsi(a))
	if rowA.IsZero() || vm.PendingTransactions() == 0 {
		t.Fatalf("first subscriber not mid-attach: row %x, %d pending", rowA, vm.PendingTransactions())
	}
	f.Env.Send("LOAD", "VLR-1", sigmap.CancelLocation{Invoke: 1, IMSI: imsi(a)})
	at(2 * time.Millisecond)
	if vm.EntryAlive(rowA) || vm.MSTable() != 0 {
		t.Fatalf("cancel mid-attach left the row: alive %v, table %d", vm.EntryAlive(rowA), vm.MSTable())
	}

	if err := f.attach(b, phone); err != nil {
		t.Fatal(err)
	}
	at(3 * time.Millisecond)
	rowB := vm.EntryHandle(imsi(b))
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
		f.Env.Send("SGSN-1", "VMSC-1", gb.DLUnitdata{
			TLLI: gprs.NewClient(imsi(a), nil).TLLI(), MS: phone, PDU: pdu,
		})
	}
	at(2*gbDelay + time.Millisecond)
	if f.SGSN.Attached() != 2 {
		t.Fatalf("SGSN saw %d attaches, want both", f.SGSN.Attached())
	}
	stray()
	f.Env.Run()
	stray()
	f.Env.Run()

	addr, registered, ok := vm.Entry(imsi(b))
	want, _ := f.GGSN.AddressOf(gtp.MakeTID(imsi(b), vmsc.NSAPISignalling))
	if !ok || !registered || !addr.IsValid() || addr != want {
		t.Fatalf("second subscriber: registered %v at %v, its own PDP address is %v", registered, addr, want)
	}
	if f.load.accepts != 1 || f.load.rejects != 0 || f.GK.Registered() != 1 || vm.MSTable() != 1 {
		t.Fatalf("accepts %d rejects %d gatekeeper %d table %d, want 1 0 1 1",
			f.load.accepts, f.load.rejects, f.GK.Registered(), vm.MSTable())
	}
	if vm.EntryAlive(rowA) || vm.PendingTransactions() != 0 || vm.SlabImbalance() != 0 {
		t.Fatalf("leftovers: old row alive %v, %d pending, imbalance %d",
			vm.EntryAlive(rowA), vm.PendingTransactions(), vm.SlabImbalance())
	}
}

// TestCancelDuringAttachDetachesSGSN cancels a subscriber while its GPRS
// attach crosses a slow Gb link. The VMSC frees the row at once, so the
// AttachAccept that comes back later finds no row; the SGSN, which attached
// the subscriber on the request, must not keep that record for good: the
// VMSC detaches the stray TLLI, and at quiescence nothing in the stack holds
// the subscriber.
func TestCancelDuringAttachDetachesSGSN(t *testing.T) {
	f := newFullStack(1, 16)
	f.Env.Connect("VMSC-1", "SGSN-1", "Gb", 5*time.Millisecond)
	if err := f.attach(0, "MS-X"); err != nil {
		t.Fatal(err)
	}
	f.Env.RunUntil(time.Millisecond)
	if f.VMSC.PendingTransactions() == 0 || f.VMSC.MSTable() != 1 {
		t.Fatalf("subscriber not mid-attach: %d pending, %d rows", f.VMSC.PendingTransactions(), f.VMSC.MSTable())
	}
	f.Env.Send("LOAD", "VLR-1", sigmap.CancelLocation{Invoke: 1, IMSI: netsim.SubscriberN(0).IMSI})
	f.Env.RunUntil(2 * time.Millisecond)
	if f.VMSC.MSTable() != 0 || f.SGSN.Attached() != 0 {
		t.Fatalf("cancel did not land mid-attach: %d rows, SGSN %d attached", f.VMSC.MSTable(), f.SGSN.Attached())
	}
	f.Env.Run()
	if got := f.SGSN.Attached(); got != 0 {
		t.Errorf("SGSN holds %d attached subscribers the VMSC freed, want 0", got)
	}
	if f.VMSC.MSTable() != 0 || f.GK.Registered() != 0 || f.GGSN.ActiveContexts() != 0 {
		t.Errorf("rows %d, gatekeeper %d, GGSN contexts %d, want none",
			f.VMSC.MSTable(), f.GK.Registered(), f.GGSN.ActiveContexts())
	}
	if f.load.accepts != 0 {
		t.Errorf("%d location updates accepted for a cancelled subscriber", f.load.accepts)
	}
	if res := f.Residual(); res.Total() != 0 {
		t.Fatalf("cancel mid-attach leaked state:\n%s", res.String())
	}
}
