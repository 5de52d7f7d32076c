package timewarp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// RunStats aggregates the statistics of a completed run. Under a
// multi-process transport each node's RunStats covers the clusters it
// hosted; PerCluster entries for remote clusters are zero.
type RunStats struct {
	ClusterStats
	PerCluster []ClusterStats `json:"per_cluster"`
	GVTRounds  int            `json:"gvt_rounds"`
	// RebalanceRounds counts completed load-collection rounds (dynamic
	// rebalancing only); RouteEpoch counts routing-table rewrites.
	RebalanceRounds int           `json:"rebalance_rounds"`
	RouteEpoch      int64         `json:"route_epoch"`
	FinalGVT        Time          `json:"final_gvt"`
	WallTime        time.Duration `json:"wall_time_ns"`
}

// Coordinator phases of the asynchronous GVT round (kernel.phase; owned by
// cluster 0's goroutine, no atomics needed).
const (
	phaseIdle    int32 = iota // no round in progress
	phaseCut                  // wave 1: cut broadcast; waiting for joins + white drain
	phaseCollect              // wave 2: report broadcast; waiting for reports
	phaseLoad                 // load round: waiting for per-cluster load captures
)

// Kernel is one Time Warp simulation instance. Build it with New, run it
// once with Run.
//
// GVT is computed by an asynchronous Mattern-style two-cut protocol instead
// of a stop-the-world barrier: clusters never stop executing events while a
// round is in flight. Every flushed batch is stamped with its sender's round
// parity ("color"); the sender counts it (by event count) in its cumulative
// sentCum[parity] and the receiver in its recvCum[parity] when it takes the
// batch out of its mailbox — the transit ledger. A round proceeds in two
// waves driven by the coordinator (cluster 0) from inside its ordinary main
// loop:
//
//   - Wave 1 (cut): the coordinator bumps the round counter and posts
//     ctrlCut bits to every mailbox. Each cluster joins the round the next
//     time it looks (turning its flushes "red" and resetting redMin, the
//     minimum receive time it has flushed since the cut) and acknowledges
//     via cutAcks, pinning its white sentCum in cutSent. Once every cluster
//     has joined, no more "white" (previous-parity) batches can be flushed,
//     so the pinned white sent counts are final, and once the white received
//     counts sum to them every pre-cut batch has been delivered into some
//     LP's queues. A cut that stops making progress for stuckCutWait fails
//     the run with the ledger (dumpStuck, returned by Run) instead of
//     hanging it.
//   - Wave 2 (report): the coordinator opens reportRound and posts
//     ctrlReport bits. Each cluster reports min(its local min over pending
//     events and events still buffered in its outboxes and local queue,
//     its redMin) — redMin covers
//     red batches still in transit across the second cut, and the buffered
//     terms cover events no sent counter covers yet because they have not
//     been flushed (see transport.go). When all reports are in,
//     GVT = min(reports).
//
// Every control message above (requests, acks, reports, the round state)
// is a ctrlMsg (ctrl.go): applied in place when its destination cluster
// lives in this process, and otherwise encoded and sent through the
// Transport seam (transport_api.go), whose receiving node applies it with
// the same code. Under TCPTransport the same state machine and the same
// ledger run with the round state replicated onto every node; a remote
// cluster's recvCum is a copy its node's mirror frames refresh.
//
// Fossil collection is not a round step: each cluster commits history on
// its own schedule whenever it observes the published GVT advance.
// Termination is GVT = TimeInfinity (no pending work, nothing in transit).
type Kernel struct {
	cfg      Config
	tr       Transport
	lps      []*lpRuntime
	clusters []*cluster
	// local lists the clusters hosted by this process (all of them under
	// the in-memory transport); only these run goroutines.
	local []*cluster
	// remote is true when the transport spans more than one process;
	// sendCtrl and publish then send frames for the remote clusters.
	remote bool
	// routes is the versioned LP→cluster mapping every send consults; it
	// replaces the frozen ClusterOf copy, and GVT-synchronized migration
	// rewrites it while the run is live (see route.go and migrate.go).
	routes *routeTable

	// fault is the first fault of a local cluster goroutine (fail); Run
	// returns it once every cluster has exited.
	faultOnce sync.Once
	fault     error

	// eventID backs the nextEventID testing helper. It starts at 1<<63 so
	// hand-minted IDs can never collide with the per-LP blocks (lp.go),
	// which live below 2^63.
	eventID     uint64
	gvtFlag     int32
	done        int32
	gvt         int64
	lastGVTNano int64

	// Round broadcast state: round and reportRound open the two waves;
	// cutAcks/reportAcks count cluster responses; reports holds each
	// cluster's wave-2 minimum and cutSent the cumulative sent counters its
	// cut ack pinned (by color), the sent side of the wave-1 drain. Under
	// TCPTransport the round state is replicated onto every node by coord
	// frames, and the acks and reports reach the coordinator's node as
	// frames (ctrl.go).
	round       int64
	reportRound int64
	cutAcks     int32
	reportAcks  int32
	reports     []paddedTime
	cutSent     [][2]int64

	// Load-round broadcast state (dynamic rebalancing): loadRound opens a
	// round, loadAcks counts captures, loadBufs holds each cluster's
	// section, snap is the reused merged snapshot.
	loadRound int64
	loadAcks  int32
	loadBufs  []loadSnapBuf
	snap      LoadSnapshot //kernelvet:owner coordinator
	edgeFill  []int32      //kernelvet:owner coordinator
	// ewma holds the smoothed per-LP committed-event load across load
	// rounds (coordinator-only, allocated and seeded by the first load
	// round; see smoothLoad).
	ewma []float64 //kernelvet:owner coordinator

	// Coordinator-only round bookkeeping (cluster 0's goroutine).
	phase           int32    //kernelvet:owner coordinator
	prevGVT         Time     //kernelvet:owner coordinator
	stuckRounds     int      //kernelvet:owner coordinator
	cutWatch        cutWatch //kernelvet:owner coordinator
	gvtRounds       int      //kernelvet:owner coordinator
	rebalanceRounds int      //kernelvet:owner coordinator
	roundsSinceLoad int      //kernelvet:owner coordinator

	// published holds each cluster's continuously self-reported next work
	// time. The optimism window throttles against min(published), and
	// senders compare a buffered batch's minimum receive time against the
	// destination's entry to decide urgent flushes — so throttling and
	// flushing never force extra GVT rounds. Entries are padded to avoid
	// false sharing. Under TCPTransport remote entries are mirrors kept
	// fresh by mirror frames.
	published []paddedTime
	// stallNeed[i] is the progress floor window-stalled cluster i is parked
	// on (TimeInfinity when it is not), and stalled counts such clusters;
	// publishProgress scans stallNeed only while stalled is non-zero (see
	// cluster.waitFloor).
	stallNeed []paddedTime
	stalled   paddedCount

	ran bool
}

// New builds a kernel for the given handlers (LP i is handlers[i]).
func New(cfg Config, handlers []Handler) (*Kernel, error) {
	if err := cfg.setDefaults(len(handlers)); err != nil {
		return nil, err
	}
	if len(handlers) == 0 {
		return nil, fmt.Errorf("timewarp: no LPs")
	}
	tr := cfg.Net.Transport
	if tr == nil {
		tr = &memTransport{}
	}
	if cfg.Dynamic.Rebalance != nil && tr.nodes() > 1 {
		// Migration hands the live runtime over by pointer; an LP cannot
		// leave its process.
		return nil, fmt.Errorf("%w: dynamic balancing runs in one process, the transport spans %d", ErrBadTransport, tr.nodes())
	}
	k := &Kernel{
		cfg:       cfg,
		tr:        tr,
		routes:    newRouteTable(cfg.ClusterOf),
		reports:   make([]paddedTime, cfg.NumClusters),
		cutSent:   make([][2]int64, cfg.NumClusters),
		eventID:   1 << 63,
		gvt:       -1,
		prevGVT:   -2,
		published: make([]paddedTime, cfg.NumClusters),
		stallNeed: make([]paddedTime, cfg.NumClusters),
		loadBufs:  make([]loadSnapBuf, cfg.NumClusters),
	}
	// A cluster that has not yet published progress must look idle, not
	// "busy at time 0": senders flush eagerly to idle destinations, so the
	// infinity seed keeps batches from sitting while a goroutine is still
	// starting up. The store is atomic like every other access to published:
	// New itself runs single-threaded, but the field's contract is
	// all-atomic-or-nothing, and the seed is not hot.
	for i := range k.published {
		atomic.StoreInt64(&k.published[i].t, TimeInfinity)
		atomic.StoreInt64(&k.stallNeed[i].t, TimeInfinity)
	}
	k.clusters = make([]*cluster, cfg.NumClusters)
	for i := range k.clusters {
		k.clusters[i] = &cluster{
			kernel:    k,
			id:        i,
			mail:      mailbox{notify: make(chan struct{}, 1)},
			out:       make([]outbox, cfg.NumClusters),
			redMin:    TimeInfinity,
			fossilAt:  -1,
			published: TimeInfinity,
			owned:     make([]bool, len(handlers)),
		}
	}
	if err := tr.bind(k); err != nil {
		return nil, err
	}
	k.remote = tr.nodes() > 1
	for _, c := range k.clusters {
		c.here = tr.localCluster(c.id)
		if c.here {
			k.local = append(k.local, c)
		}
	}
	k.lps = make([]*lpRuntime, len(handlers))
	for i, h := range handlers {
		if h == nil {
			return nil, fmt.Errorf("timewarp: handler %d is nil", i)
		}
		c := k.clusters[cfg.ClusterOf[i]]
		lp := newLPRuntime(LPID(i), h, c)
		k.lps[i] = lp
		// Only the hosting process materializes the LP into a cluster's
		// owned set; on other nodes the runtime stays an empty shell, so
		// every node indexes the LPs alike.
		if c.here {
			c.lps = append(c.lps, lp)
			c.owned[i] = true
		}
	}
	return k, nil
}

// nextEventID hands out one event ID from the kernel's test range; tests and
// tools use it, the hot path goes through lpRuntime.nextEventID's per-LP
// blocks instead.
func (k *Kernel) nextEventID() uint64 {
	return atomic.AddUint64(&k.eventID, 1)
}

func (k *Kernel) requestGVT() {
	k.sendCtrl(coordCluster, ctrlMsg{typ: frameReqGVT})
}

// requestGVTAfter requests a round only if none completed within the given
// wall-clock interval; callers pick the fuse by urgency.
func (k *Kernel) requestGVTAfter(d time.Duration) {
	if time.Now().UnixNano()-atomic.LoadInt64(&k.lastGVTNano) > int64(d) {
		k.requestGVT()
	}
}

// requestGVTIfStale requests a round only if none completed recently; idle
// clusters use it so termination (GVT = infinity) is detected promptly
// without spamming busy clusters with back-to-back rounds.
func (k *Kernel) requestGVTIfStale() {
	k.requestGVTAfter(2 * time.Millisecond)
}

func (k *Kernel) busy(iters int) {
	if iters <= 0 {
		return
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 1 {
		panic("timewarp: unreachable busy sentinel")
	}
}

// GVT returns the most recently computed global virtual time.
func (k *Kernel) GVT() Time { return atomic.LoadInt64(&k.gvt) }

// Nodes returns the number of OS processes cooperating in this run (1 under
// the in-memory transport).
func (k *Kernel) Nodes() int { return k.tr.nodes() }

// LocalLP reports whether the LP's current home cluster is hosted by this
// process. Callers aggregating results across nodes use it to pick exactly
// one owner per LP after Run returned (routing has converged by then).
func (k *Kernel) LocalLP(lp LPID) bool { return k.clusters[k.RouteOf(lp)].here }

// paddedTime is a cache-line padded atomic virtual time.
type paddedTime struct {
	t Time
	_ [7]int64
}

// paddedCount is a cache-line padded atomic counter.
type paddedCount struct {
	n int64
	_ [7]int64
}

// publish records local cluster c's next work time and, under a
// multi-process transport, has it mirrored to the other nodes. An unchanged
// time is neither stored nor scanned for waiters: most publishes repeat the
// value already there (about 96 % at k=2 when every bundle published), and
// each store moves a cache line every other cluster's progressFloor reads
// on every bundle. No wake is lost, because the floor only advances when
// some entry changes, and every change is a store followed by
// publishProgress's wake scan. The mirror also carries the cluster's
// received counters, which change on their own, so across processes the
// transport is asked for a refresh when either changed since the last one.
func (k *Kernel) publish(c *cluster, t Time) {
	changed := t != c.published
	if changed {
		c.published = t
		k.publishProgress(c.id, t)
	}
	if k.remote {
		recv := [2]int64{atomic.LoadInt64(&c.recvCum[0].n), atomic.LoadInt64(&c.recvCum[1].n)}
		if changed || recv != c.mirroredRecv {
			c.mirroredRecv = recv
			k.tr.publish()
		}
	}
}

// publishProgress records cluster id's next work time for the optimism
// window and the urgency flush trigger, and wakes every local
// window-stalled cluster whose horizon the progress floor has now reached.
// The common case (nobody stalled) costs one extra atomic load.
//
// After a wake the caller yields once. The woken goroutine is queued on the
// caller's processor, and with every cluster runnable it would wait there
// until the caller is preempted; meanwhile the caller runs past the woken
// cluster, the lead flips, and the new leader collects stragglers (s9234,
// Random partition, k=2, grain 0 on a 2-vCPU host: efficiency about 0.96
// without the yield, 0.98 with it).
func (k *Kernel) publishProgress(id int, t Time) {
	atomic.StoreInt64(&k.published[id].t, t)
	if atomic.LoadInt64(&k.stalled.n) == 0 {
		return
	}
	floor := k.progressFloor()
	woke := false
	for _, c := range k.local {
		if need := atomic.LoadInt64(&k.stallNeed[c.id].t); need < TimeInfinity && need <= floor && c.mail.wake() {
			woke = true
		}
	}
	if woke {
		runtime.Gosched()
	}
}

// progressFloor returns the minimum self-reported next work time across
// clusters: a cheap, approximate lower bound on global progress used only
// for optimism throttling (never for fossil collection).
func (k *Kernel) progressFloor() Time {
	min := TimeInfinity
	for i := range k.published {
		if t := atomic.LoadInt64(&k.published[i].t); t < min {
			min = t
		}
	}
	return min
}

// inTransit returns the ledger's undelivered flushed-event count across both
// colors; only single-threaded initialization needs the colorless total.
func (k *Kernel) inTransit() int64 {
	var n int64
	for _, c := range k.clusters {
		for color := range c.sentCum {
			n += atomic.LoadInt64(&c.sentCum[color].n) - atomic.LoadInt64(&c.recvCum[color].n)
		}
	}
	return n
}

// stuckCutWait is how long wave 1 may go without a new cut ack or a new white
// receipt before the coordinator declares GVT stuck. A leaked ledger count
// would otherwise hang the run; the bound sits well above TCPOptions'
// default PeerTimeout, so a dead peer still surfaces first as ErrPeerDown.
const stuckCutWait = 30 * time.Second

// cutWatch is the coordinator's record of wave-1 progress: the ack count and
// white received sum it last saw, and when (UnixNano) either last moved.
type cutWatch struct {
	acks        int32
	recv, since int64
}

// Run initializes every local LP, runs this process's clusters to completion
// (GVT = infinity) and returns the aggregated statistics of the clusters it
// hosted. A panic on a cluster goroutine (a handler's, or a kernel fault
// such as a stuck GVT) ends the run: Run returns it as an error naming the
// cluster, with the final commit skipped. A kernel can run only once.
func (k *Kernel) Run() (RunStats, error) {
	if k.ran {
		return RunStats{}, fmt.Errorf("timewarp: kernel already ran")
	}
	k.ran = true
	if err := k.initRun(); err != nil {
		return RunStats{}, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range k.local {
		wg.Add(1)
		go func(c *cluster) {
			defer wg.Done()
			defer k.recoverCluster(c)
			c.run()
		}(c)
	}
	wg.Wait()

	// Settle the fabric before committing final state: under a multi-
	// process transport this is the FIN barrier that guarantees every
	// in-flight frame has been applied.
	err := k.tr.finishRun()

	if k.fault != nil {
		// A faulted run has no final state worth committing.
		err = k.fault
	} else {
		// A migration payload can be in flight at termination: an LP with
		// no pending work neither blocks the final cut (its payloadMin is
		// infinity) nor holds GVT finite, so its destination may exit
		// before adopting it. Adopt such payloads single-threaded and
		// commit their remaining history; the clusters' own exit paths
		// already committed everything they owned.
		for _, c := range k.local {
			c.adoptFinalPayloads()
		}
		for _, c := range k.local {
			c.fossilCollect(k.GVT())
		}
	}

	stats := RunStats{
		PerCluster:      make([]ClusterStats, len(k.clusters)),
		GVTRounds:       k.gvtRounds,
		RebalanceRounds: k.rebalanceRounds,
		RouteEpoch:      k.routes.Epoch(),
		FinalGVT:        k.GVT(),
		WallTime:        time.Since(start),
	}
	for _, c := range k.local {
		stats.PerCluster[c.id] = c.stats
		stats.ClusterStats.add(c.stats)
	}
	return stats, err
}

// initRun brings a kernel to the state its cluster loops start from: the
// transport up, every local LP initialized, the initial events delivered
// and each local scheduler seeded and published. Run calls it before
// starting the cluster goroutines; tests call it to drive cluster.step
// directly.
func (k *Kernel) initRun() error {
	// The fabric must be up before handlers run: init-time sends can target
	// LPs hosted by other processes.
	if err := k.tr.start(); err != nil {
		return err
	}

	// Initialization happens single-threaded per node: handlers may send
	// initial events to any LP; they are routed directly into pending
	// queues (local) or onto the wire (remote).
	for _, lp := range k.lps {
		if !lp.cluster.here {
			continue
		}
		lp.ctx = Context{lp: lp, now: -1, inInit: true}
		lp.handler.Init(&lp.ctx)
	}
	// Initial events must land in LP queues before the clusters start:
	// flush every outbox and drain every queue until the local transport is
	// quiescent. A flush into a tiny, already-loaded mailbox can be refused
	// and is simply retried on the next pass, after its consumer drained.
	// Across processes there is no init barrier: this node settles once its
	// own buffers drained, and init events still inbound from peers are
	// handled by the running clusters as ordinary (white round-1) traffic.
	for {
		moved := 0
		buffered := 0
		for _, c := range k.local {
			c.flushAll()
			moved += c.drainLocal() + c.drainAllInit()
			buffered += c.outboxed() + (len(c.localQ) - c.localHead)
		}
		if moved == 0 && buffered == 0 && k.tr.initQuiet() {
			break
		}
		if atomic.LoadInt32(&k.done) == 1 {
			// The transport turned fatal during init (a peer died or the
			// mesh aborted): its lanes may never drain. Proceed — the
			// cluster loops exit immediately and finishRun reports why.
			break
		}
	}
	// Seed each cluster's scheduler and publish its first work time, so the
	// optimism window holds from the first event on rather than from the
	// moment the slower-starting goroutine first publishes.
	for _, c := range k.local {
		for _, lp := range c.lps {
			c.schedule(lp)
		}
		k.publish(c, c.nextWork())
	}
	return nil
}

// recoverCluster turns a panic on cluster c's goroutine — a kernel fault such
// as the stuck-GVT dump, or a handler's own panic — into the error Run
// returns, naming the cluster and carrying the panic's stack.
func (k *Kernel) recoverCluster(c *cluster) {
	if r := recover(); r != nil {
		k.fail(fmt.Errorf("timewarp: cluster %d: %v\n%s", c.id, r, debug.Stack()))
	}
}

// fail ends the run with err: it records the first fault for Run, ends every
// local cluster loop and, across processes, aborts the mesh so the peers
// stop too. Any local cluster goroutine may call it.
func (k *Kernel) fail(err error) {
	k.faultOnce.Do(func() { k.fault = err })
	atomic.StoreInt32(&k.done, 1)
	for _, lc := range k.local {
		lc.mail.wake()
	}
	k.tr.abort(err)
}

// coordinate advances the GVT round state machine by at most one step.
// Cluster 0 calls it once per pass of its loop (cluster.step); every step is
// non-blocking, so the coordinator keeps draining and executing events
// while a round is in flight. The coordinator runs inside cluster 0's loop
// yet is its own ownership domain: only code reached from here may touch the
// kernel's round bookkeeping.
//
//kernelvet:goroutine coordinator
func (k *Kernel) coordinate() {
	switch k.phase {
	case phaseIdle:
		if atomic.LoadInt32(&k.gvtFlag) == 0 {
			return
		}
		// Requests observed from here on belong to the next round.
		atomic.StoreInt32(&k.gvtFlag, 0)
		// Ack counters must be reset before the round counter is bumped:
		// a cluster that observes the new round immediately acks into them.
		atomic.StoreInt32(&k.cutAcks, 0)
		atomic.StoreInt32(&k.reportAcks, 0)
		atomic.AddInt64(&k.round, 1)
		k.phase = phaseCut
		k.cutWatch = cutWatch{acks: -1}
		k.broadcastRound(ctrlCut, false)
	case phaseCut:
		// Once all clusters are red no new white batches can appear, so the
		// pinned sent counts are final and the cut closes when every white
		// batch has been received: live counts for local clusters, mirrored
		// ones for remote clusters.
		acks := atomic.LoadInt32(&k.cutAcks)
		white := 1 - atomic.LoadInt64(&k.round)&1
		var sent, recv int64
		for i, c := range k.clusters {
			sent += atomic.LoadInt64(&k.cutSent[i][white])
			recv += atomic.LoadInt64(&c.recvCum[white].n)
		}
		if acks != int32(len(k.clusters)) || recv < sent {
			// A cut that gains neither an ack nor a white receipt for
			// stuckCutWait has leaked a ledger count; the dump shows whose.
			now := time.Now().UnixNano()
			if w := &k.cutWatch; acks != w.acks || recv != w.recv {
				*w = cutWatch{acks: acks, recv: recv, since: now}
			} else if now-w.since > int64(stuckCutWait) {
				k.dumpStuck(fmt.Sprintf("timewarp: GVT stuck in the cut of round %d for %v: %d of %d cut acks, white sent %d, received %d",
					atomic.LoadInt64(&k.round), time.Duration(now-w.since), acks, len(k.clusters), sent, recv))
			}
			return
		}
		atomic.StoreInt64(&k.reportRound, atomic.LoadInt64(&k.round))
		k.phase = phaseCollect
		k.broadcastRound(ctrlReport, false)
	case phaseCollect:
		if atomic.LoadInt32(&k.reportAcks) != int32(len(k.clusters)) {
			return
		}
		gvt := TimeInfinity
		for i := range k.reports {
			if t := atomic.LoadInt64(&k.reports[i].t); t < gvt {
				gvt = t
			}
		}
		if gvt != TimeInfinity && gvt == k.prevGVT {
			k.stuckRounds++
			if k.stuckRounds > 5000 {
				k.dumpStuck(fmt.Sprintf("timewarp: GVT stuck at %d", gvt))
			}
		} else {
			k.stuckRounds = 0
		}
		advanced := gvt > k.prevGVT
		k.prevGVT = gvt
		atomic.StoreInt64(&k.gvt, gvt)
		k.gvtRounds++
		atomic.StoreInt64(&k.lastGVTNano, time.Now().UnixNano())
		k.phase = phaseIdle
		if gvt == TimeInfinity {
			atomic.StoreInt32(&k.done, 1)
			k.broadcastRound(0, true)
			return
		}
		k.broadcastRound(0, false)
		// Dynamic rebalancing piggybacks on GVT advance: that is the one
		// point where every LP's committed prefix is unique and fossil
		// collection has already pruned what a migration would carry.
		if k.cfg.Dynamic.Rebalance != nil && advanced {
			k.roundsSinceLoad++
			if k.roundsSinceLoad >= k.cfg.Dynamic.PeriodRounds {
				k.roundsSinceLoad = 0
				k.startLoadRound()
			}
		}
	case phaseLoad:
		if atomic.LoadInt32(&k.loadAcks) != int32(len(k.clusters)) {
			return
		}
		k.finishLoadRound()
		k.phase = phaseIdle
	}
}

// dumpStuck reports the kernel state when GVT has not advanced for thousands
// of rounds or a cut has stopped draining: either indicates a kernel bug, so
// fail loudly with enough context to locate the holder. The dump reads other
// clusters' state without synchronization — the kernel is already broken
// and about to panic, so a torn diagnostic beats a silent wedge.
//
//kernelvet:allow ownership the kernel is wedged and about to panic; torn reads beat a silent hang
func (k *Kernel) dumpStuck(headline string) {
	var sb []byte
	add := func(f string, a ...interface{}) { sb = append(sb, []byte(fmt.Sprintf(f, a...))...) }
	add("%s\n", headline)
	for i, c := range k.clusters {
		where := "mirrored"
		if c.here {
			where = "local"
		}
		sent := [2]int64{atomic.LoadInt64(&k.cutSent[i][0]), atomic.LoadInt64(&k.cutSent[i][1])}
		recv := [2]int64{atomic.LoadInt64(&c.recvCum[0].n), atomic.LoadInt64(&c.recvCum[1].n)}
		add("cluster %d ledger: cutSent=%v recvCum=%v (%s)\n", i, sent, recv, where)
	}
	for _, c := range k.local {
		// The mailbox is the one structure with a lock of its own; take it
		// so at least that read is clean.
		c.mail.mu.Lock()
		mail := len(c.mail.in)
		c.mail.mu.Unlock()
		add("cluster %d: sched=%d localQ=%d outboxed=%d mail=%d delayed=%d limbo=%d localMin=%d\n",
			c.id, c.sched.len(), len(c.localQ), c.outboxed(), mail, len(c.delayed), len(c.limbo), c.localMin())
		dead := 0
		for i := range c.hist.recs {
			if c.hist.recs[i].dead {
				dead++
			}
		}
		add("cluster %d history: head=%d len=%d dead=%d fossilAt=%d\n",
			c.id, c.hist.headSeq(), len(c.hist.recs), dead, c.fossilAt)
	}
	for _, lp := range k.lps {
		nt := lp.nextTime()
		if nt == TimeInfinity {
			continue
		}
		add("  lp %d (cluster %d): next=%d lvt=%d pending=%d cancelled=%d live=%d\n",
			lp.id, k.RouteOf(lp.id), nt, lp.lvt, len(lp.pending), len(lp.cancelled), lp.liveRecords())
	}
	panic(string(sb))
}
