package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/tqrt"
)

// The live-kv workload: the server loop of examples/kvserver, owned by
// the benchmark so it can be timed from outside, on one UDP socket of
// the host's loopback interface — no link, no NIC, so the latencies
// hold kernel UDP and Go scheduler time and nothing of a wire.
const (
	kindGET  = 1
	kindSCAN = 2
	// kindFence marks the datagram a client sends after a set: the
	// server reader acknowledges it on liveServer.fence once everything
	// sent before it has been handed to the runtime.
	kindFence = 0xffff

	liveKeys      = 100_000
	liveScanLen   = 2000
	liveScanShare = 0.005

	// liveRate is frozen, not searched for at run time: the highest
	// multiple of 1000 rps up to 20 000 at which five consecutive sets
	// lost no request on the box the benchmark was defined on (see
	// liveCalibration). The saturation burst puts that box's capacity
	// near 170 000 rps, so the open loop runs at about an eighth of it.
	liveRate = 20_000

	liveSetSeconds = 2.0
	liveDrain      = 300 * time.Millisecond
	liveSocketBuf  = 4 << 20

	// liveTraceRequests caps how many requests of a traced set are
	// written as spans (nine each); every request still feeds the
	// traced set's metrics.
	liveTraceRequests = 2000
)

// liveCalibrationRun is one zero-loss set recorded when liveRate was
// frozen; the environment block of every output repeats them.
type liveCalibrationRun struct {
	Sent     int     `json:"sent"`
	Received int     `json:"received"`
	GetP50Us float64 `json:"get_p50_us"`
	GetP99Us float64 `json:"get_p99_us"`
}

// scheduled is one request of the schedule built from the seed.
type scheduled struct {
	kind uint16
	key  uint32
	due  int64 // ns after the set's start
}

// encode appends the request's datagram to pkt.
func (req scheduled) encode(pkt []byte, id uint64, sentNs int64) []byte {
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], req.key)
	return netsim.EncodeRequest(pkt, &netsim.Request{ID: id, SentNs: sentNs, Kind: req.kind, Payload: key[:]})
}

// reqRecord is what one set observed of one request, in ns since
// process start. Each field has one writer — the client sender, the
// client receiver, the server reader or the worker running the task —
// and is read only after the set has quiesced (liveJob.quiesce), which
// orders every write before the read.
type reqRecord struct {
	sent, sendEnd, recv         int64 // client
	srvRead, decoded, submitted int64 // server reader
	taskStart, kvDone, written  int64 // worker
}

// liveSet is the state of the set in flight; the server finds it
// through liveServer.set.
type liveSet struct {
	recs   []reqRecord
	traced bool
}

// liveServer is the benchmark-owned kv server on the tqrt runtime.
type liveServer struct {
	store *kvstore.Store
	keys  [][]byte
	rt    *tqrt.Runtime
	conn  *net.UDPConn
	wg    sync.WaitGroup
	set   atomic.Pointer[liveSet]
	// fence receives the number of each kindFence datagram the reader
	// meets; fenceSeq numbers them and belongs to the client side.
	fence    chan uint64
	fenceSeq uint64
	// bad counts datagrams the server could not use and replies it could
	// not send. Either leaves a request unanswered, which the client
	// counts as failed.
	bad atomic.Int64
}

func liveKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// loadStore builds the store the server reads: n keys, flushed into a
// sorted run. The store's own seed is fixed — it shapes the program's
// state, not the workload's input.
func loadStore(n int) (*kvstore.Store, [][]byte) {
	store := kvstore.New(kvstore.Config{Seed: 1})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = liveKey(i)
		store.Put(keys[i], []byte(fmt.Sprintf("value-%012d", i)))
	}
	store.Flush()
	return store, keys
}

func listenLoopback() (*net.UDPConn, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	setSocketBuffers(conn)
	return conn, nil
}

// setSocketBuffers asks for liveSocketBuf both ways. The kernel caps
// the request at net.core.{r,w}mem_max without failing it, and a
// smaller buffer only makes loss — which is counted — more likely, so
// the errors carry nothing to act on.
func setSocketBuffers(conn *net.UDPConn) {
	_ = conn.SetReadBuffer(liveSocketBuf)
	_ = conn.SetWriteBuffer(liveSocketBuf)
}

func startLiveServer(store *kvstore.Store, keys [][]byte) (*liveServer, error) {
	conn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &liveServer{store: store, keys: keys, conn: conn, fence: make(chan uint64, fenceAttempts)}
	s.rt = tqrt.New(tqrt.Config{Workers: 2, Coroutines: 8, Quantum: 25 * time.Microsecond, QueueCap: 1 << 14})
	s.rt.Start()
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// serve is the server loop: read a datagram, decode it, submit the
// request as a task; the worker replies directly to the client.
func (s *liveServer) serve() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	for {
		n, client, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		tRead := nowNs()
		set := s.set.Load()
		req, err := netsim.DecodeRequest(buf[:n])
		if err == nil && req.Kind == kindFence {
			select {
			case s.fence <- req.ID:
			default: // a full channel means quiesce stopped listening; it will resend
			}
			continue
		}
		if err != nil || len(req.Payload) < 4 || set == nil || req.ID >= uint64(len(set.recs)) {
			s.bad.Add(1)
			continue
		}
		rec, traced := &set.recs[req.ID], set.traced
		rec.srvRead = tRead
		key := s.keys[int(binary.LittleEndian.Uint32(req.Payload))%len(s.keys)]
		resp := netsim.Response{ID: req.ID, SentNs: req.SentNs, Kind: req.Kind}
		if traced {
			rec.decoded = nowNs()
		}
		err = s.rt.Submit(func(y *tqrt.Yield) {
			if traced {
				rec.taskStart = nowNs()
			}
			switch resp.Kind {
			case kindGET:
				s.store.Get(key)
				y.Probe()
			case kindSCAN:
				seen := 0
				s.store.Scan(key, liveScanLen, func(_, _ []byte) bool {
					if seen++; seen%64 == 0 {
						y.Probe() // probe points between entry batches
					}
					return true
				})
			}
			if traced {
				rec.kvDone = nowNs()
			}
			resp.ServerNs = nowNs() - tRead
			if _, err := s.conn.WriteToUDPAddrPort(netsim.EncodeResponse(nil, &resp), client); err != nil {
				s.bad.Add(1)
			}
			rec.written = nowNs()
		})
		if err != nil {
			s.bad.Add(1)
		}
		if traced {
			rec.submitted = nowNs()
		}
	}
}

func (s *liveServer) stop() {
	s.rt.Wait()
	_ = s.conn.Close() // unblocks serve; nothing to flush on a UDP socket
	s.wg.Wait()
	s.rt.Stop()
}

// liveJob is live-kv after set-up: a loaded store, a running server, a
// connected client socket and the request schedule built from the seed.
type liveJob struct {
	srv      *liveServer
	cli      *net.UDPConn
	schedule []scheduled
	drain    time.Duration
	played   bool // the open-loop set has been played once
}

// buildSchedule draws the open-loop schedule: Poisson arrivals at
// liveRate for the given length, each a GET or (liveScanShare of the
// time) a SCAN on a uniform key.
func buildSchedule(seed uint64, seconds float64, keys int) []scheduled {
	r := rng.New(seed)
	horizon := int64(seconds * 1e9)
	meanGap := 1e9 / float64(liveRate)
	var sched []scheduled
	for t := int64(r.Exp(meanGap)); t < horizon; t += int64(r.Exp(meanGap)) + 1 {
		req := scheduled{kind: kindGET, key: uint32(r.Intn(keys)), due: t}
		if r.Float64() < liveScanShare {
			req.kind = kindSCAN
		}
		sched = append(sched, req)
	}
	return sched
}

func setupLiveKV(seed uint64, quick bool) (job, error) {
	keys, setSeconds, drain := liveKeys, liveSetSeconds, liveDrain
	if quick {
		keys, setSeconds, drain = liveKeys/20, setSeconds/20, liveDrain/3
	}
	store, keyTable := loadStore(keys)
	srv, err := startLiveServer(store, keyTable)
	if err != nil {
		return nil, err
	}
	cli, err := net.DialUDP("udp", nil, srv.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srv.stop()
		return nil, fmt.Errorf("dial the server: %w", err)
	}
	setSocketBuffers(cli)
	j := &liveJob{srv: srv, cli: cli, schedule: buildSchedule(seed, setSeconds, keys), drain: drain}
	// Warm-up: the first tenth of the schedule, so the runtime's
	// goroutines, the socket path and the store's pages are hot.
	warm := &liveJob{srv: srv, cli: cli, schedule: j.schedule[:len(j.schedule)/10+1], drain: drain}
	if _, err := warm.run(nil); err != nil {
		j.close()
		return nil, fmt.Errorf("warm-up set: %w", err)
	}
	return j, nil
}

// fenceAttempts bounds how often quiesce resends a fence that a full
// socket buffer may have dropped.
const fenceAttempts = 5

// quiesce waits until the server has nothing of this client's left:
// a numbered fence datagram follows the set's requests through the
// socket, so when the reader acknowledges it every earlier request has
// been submitted, and the runtime can be drained without racing a
// Submit. Acknowledgements of an earlier quiesce's resent fences carry
// lower numbers and are ignored.
func (j *liveJob) quiesce() error {
	first := j.srv.fenceSeq + 1
	for attempt := 0; attempt < fenceAttempts; attempt++ {
		j.srv.fenceSeq++
		pkt := netsim.EncodeRequest(nil, &netsim.Request{ID: j.srv.fenceSeq, Kind: kindFence})
		if _, err := j.cli.Write(pkt); err != nil {
			return fmt.Errorf("send fence: %w", err)
		}
		timeout := time.After(200 * time.Millisecond)
	wait:
		for {
			select {
			case id := <-j.srv.fence:
				if id >= first {
					j.srv.rt.Wait()
					return nil
				}
			case <-timeout:
				break wait
			}
		}
	}
	return fmt.Errorf("server did not acknowledge a fence in %d attempts", fenceAttempts)
}

func (j *liveJob) close() {
	j.srv.stop()
	_ = j.cli.Close() // read side only matters; the set is over
}

// run is one repeat. The saturation burst is the repeat's fixed job:
// its wall time, CPU and allocation are the gated figures. Latency at a
// tenth of the box's capacity is set by how fast parked threads wake,
// which on a small shared host swings by more than any bound could hold
// (README.md, "live-kv"); the burst keeps every thread busy and repeats
// to a few percent. A job's first repeat — the untimed one of an
// untraced run — and every traced repeat first play the open-loop set,
// whose latencies are the live path's read-outs and whose every request
// must be answered; the timed repeats after it spend the run's budget on
// what is gated.
func (j *liveJob) run(tr *tracer) (*outcome, error) {
	out := &outcome{extra: map[string]float64{}}
	if tr != nil || !j.played {
		j.played = true
		if err := j.openLoop(tr, out); err != nil {
			return out, err
		}
	}
	if err := j.burst(tr != nil, out); err != nil {
		return out, err
	}
	return out, nil
}

// openLoop plays the schedule once: a sender goroutine transmits each
// request when it is due whether or not earlier ones were answered, a
// receiver goroutine stamps replies, and every latency is taken from
// the due time, so a stalled sender's lateness counts against the
// system rather than vanishing.
func (j *liveJob) openLoop(tr *tracer, out *outcome) error {
	set := &liveSet{recs: make([]reqRecord, len(j.schedule)), traced: tr != nil}
	sched, recs := j.schedule, set.recs
	j.srv.set.Store(set)
	defer j.srv.set.Store(nil)
	badBefore := j.srv.bad.Load()

	var (
		received atomic.Int64
		sendErrs int64
		recvErr  error
		wg       sync.WaitGroup
	)
	if err := j.cli.SetReadDeadline(time.Time{}); err != nil {
		return fmt.Errorf("clear read deadline: %w", err)
	}
	start := nowNs() + int64(2*time.Millisecond)
	wg.Add(2)
	go func() { // receiver
		defer wg.Done()
		buf := make([]byte, 2048)
		for received.Load() < int64(len(recs)) {
			n, err := j.cli.Read(buf)
			t := nowNs()
			if err != nil {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					recvErr = err
				}
				return
			}
			resp, err := netsim.DecodeResponse(buf[:n])
			if err != nil || resp.ID >= uint64(len(recs)) || recs[resp.ID].recv != 0 {
				continue // undecodable, stray or duplicate: the request stays unanswered
			}
			recs[resp.ID].recv = t
			received.Add(1)
		}
	}()
	go func() { // sender
		defer wg.Done()
		// The sender spins on the clock between sends and owns its thread
		// while it does: sleeping would round every wait up to the
		// runtime's millisecond netpoll timeout, and a spinning goroutine
		// that shared its thread would be descheduled for hundreds of
		// microseconds whenever the runtime preempted it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var (
			pkt       []byte
			lastYield int64
		)
		for i := range recs {
			rec, req := &recs[i], sched[i]
			due := start + req.due
			for {
				now := nowNs()
				slack := due - now
				if slack <= 0 {
					break
				}
				// Hand the P over now and then, when the next send is far
				// enough off, so the runtime never has to take it by force.
				if slack > int64(100*time.Microsecond) && now-lastYield > int64(2*time.Millisecond) {
					runtime.Gosched()
					lastYield = nowNs()
				}
			}
			pkt = req.encode(pkt[:0], uint64(i), due)
			rec.sent = nowNs()
			if _, err := j.cli.Write(pkt); err != nil {
				sendErrs++
			}
			if set.traced {
				rec.sendEnd = nowNs()
			}
		}
		// The schedule is out: give stragglers the drain window, then
		// release the receiver.
		_ = j.cli.SetReadDeadline(time.Now().Add(j.drain)) // a failure here only shortens the drain
	}()
	wg.Wait()
	if err := j.quiesce(); err != nil {
		return err
	}
	if recvErr != nil {
		return fmt.Errorf("client receive: %w", recvErr)
	}

	out.ops += int64(len(recs))
	var getLat, scanLat, getSoj, lag, queueWait []float64
	for i := range recs {
		rec, due := &recs[i], start+sched[i].due
		lag = append(lag, float64(rec.sent-due)/1e3)
		if rec.recv == 0 {
			out.failed++
			continue
		}
		lat := float64(rec.recv-due) / 1e3
		if sched[i].kind == kindSCAN {
			scanLat = append(scanLat, lat)
			continue
		}
		getLat = append(getLat, lat)
		getSoj = append(getSoj, float64(rec.written-rec.srvRead)/1e3)
		if set.traced {
			queueWait = append(queueWait, float64(rec.taskStart-rec.decoded)/1e3)
		}
	}
	for _, s := range [][]float64{getLat, scanLat, getSoj, lag, queueWait} {
		sort.Float64s(s)
	}
	if len(getLat) == 0 {
		return fmt.Errorf("no GET was answered (%d due, %d send errors, %d unusable datagrams at the server)",
			len(recs), sendErrs, j.srv.bad.Load()-badBefore)
	}
	out.extra["live_get_p50_us"] = percentile(getLat, 0.50)
	out.extra["live_get_p99_us"] = percentile(getLat, 0.99)
	out.extra["live_scan_p50_us"] = percentile(scanLat, 0.50)
	out.extra["live_sojourn_p50_us"] = percentile(getSoj, 0.50)
	out.extra["live_sojourn_p99_us"] = percentile(getSoj, 0.99)
	out.extra["loadgen.lag_p50_us"] = percentile(lag, 0.50)
	out.extra["loadgen.lag_p99_us"] = percentile(lag, 0.99)
	out.extra["loadgen.sent"] = float64(int64(len(recs)) - sendErrs)
	out.extra["loadgen.received"] = float64(received.Load())
	if set.traced {
		out.extra["tqrt.queue_wait_p50_us"] = percentile(queueWait, 0.50)
		out.extra["tqrt.worker_imbalance"] = workerImbalance(j.srv.rt.Stats())
		liveSpans(tr, sched, recs, start)
	}
	return nil
}

const (
	// burstRounds is how many times the saturation burst replays the
	// schedule, and burstWindow how many requests it keeps in flight:
	// enough that the server never waits for the client.
	burstRounds = 2
	burstWindow = 64
)

// burst serves the schedule's requests again as fast as the system
// will take them, closed loop with burstWindow in flight, and times the
// batch from outside: wall from first send to last reply, process CPU
// and bytes allocated. With every thread busy nothing waits on a
// wake-up, so this is the live path's cost per request rather than the
// host's scheduling latency.
func (j *liveJob) burst(traced bool, out *outcome) error {
	total := burstRounds * len(j.schedule)
	set := &liveSet{recs: make([]reqRecord, total), traced: traced}
	j.srv.set.Store(set)
	defer j.srv.set.Store(nil)
	if err := j.cli.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return fmt.Errorf("burst deadline: %w", err)
	}
	var (
		pkt       []byte
		buf       = make([]byte, 2048)
		sent, got int
	)
	send := func() error {
		pkt = j.schedule[sent%len(j.schedule)].encode(pkt[:0], uint64(sent), 0)
		sent++
		_, err := j.cli.Write(pkt)
		return err
	}

	var err error
	out.cost = observe(func() {
		for err == nil && sent < burstWindow && sent < total {
			err = send()
		}
		for err == nil && got < total {
			if _, err = j.cli.Read(buf); err != nil {
				break
			}
			got++
			if sent < total {
				err = send()
			}
		}
	})
	if qerr := j.quiesce(); qerr != nil {
		return qerr
	}

	out.ops += int64(total)
	out.failed += int64(total - got)
	out.extra["live_cpu_us_per_req"] = out.cost.cpu * 1e6 / float64(total)
	if err != nil {
		return fmt.Errorf("saturation burst stopped after %d of %d replies: %w", got, total, err)
	}
	return nil
}

// workerImbalance is the busiest worker's assigned-task count over the
// mean: 1 when the dispatcher balanced perfectly.
func workerImbalance(st tqrt.Stats) float64 {
	var max, sum uint64
	for _, w := range st.Workers {
		sum += w.Assigned
		if w.Assigned > max {
			max = w.Assigned
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(st.Workers)) / float64(sum)
}

// Trace tracks of a live-kv request.
const (
	trackClient = iota
	trackServerReader
	trackWorker
)

// liveSpans writes one trace per answered request, as the path a
// request takes: due → send → server read → decode → Submit → queue
// wait → task body (kvstore, then encode+write) → client receive.
// The two spans that cross the socket start where the datagram can
// first have left — the send call's start, the reply's encode — not
// where the sending side's call returned, which the other side can
// beat: they overlap "send" and "encode+write" rather than follow them.
func liveSpans(tr *tracer, sched []scheduled, recs []reqRecord, start int64) {
	for i := range recs {
		if i >= liveTraceRequests {
			return
		}
		rec := &recs[i]
		if rec.recv == 0 {
			continue
		}
		req, due := uint64(i+1), start+sched[i].due
		root := tr.add("request", due, rec.recv, 0, req, trackClient)
		tr.add("due to send", due, rec.sent, root, req, trackClient)
		tr.add("send", rec.sent, rec.sendEnd, root, req, trackClient)
		tr.add("server read", rec.sent, rec.srvRead, root, req, trackServerReader)
		tr.add("decode", rec.srvRead, rec.decoded, root, req, trackServerReader)
		tr.add("Submit", rec.decoded, rec.submitted, root, req, trackServerReader)
		tr.add("queue wait", rec.decoded, rec.taskStart, root, req, trackWorker)
		body := tr.add("task body", rec.taskStart, rec.written, root, req, trackWorker)
		tr.add("kvstore", rec.taskStart, rec.kvDone, body, req, trackWorker)
		tr.add("encode+write", rec.kvDone, rec.written, body, req, trackWorker)
		tr.add("client receive", rec.kvDone, rec.recv, root, req, trackClient)
	}
}

// udpEchoP50 is the path floor under live-kv: the median round trip of
// a datagram through the same kind of sockets with a bare echo loop in
// place of decode, tqrt and the store. Closed loop, one in flight.
func udpEchoP50(n int) (float64, error) {
	srv, err := listenLoopback()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, client, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			_, _ = srv.WriteToUDPAddrPort(buf[:n], client) // a lost echo shows as a client timeout
		}
	}()
	defer func() {
		_ = srv.Close() // unblocks the echo loop
		wg.Wait()
	}()
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, fmt.Errorf("dial the echo server: %w", err)
	}
	defer cli.Close()
	pkt := netsim.EncodeRequest(nil, &netsim.Request{Kind: kindGET, Payload: make([]byte, 4)})
	buf := make([]byte, 2048)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := cli.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return 0, fmt.Errorf("echo deadline: %w", err)
		}
		t := nowNs()
		if _, err := cli.Write(pkt); err != nil {
			return 0, fmt.Errorf("echo send: %w", err)
		}
		if _, err := cli.Read(buf); err != nil {
			return 0, fmt.Errorf("echo receive: %w", err)
		}
		rtts = append(rtts, float64(nowNs()-t)/1e3)
	}
	sort.Float64s(rtts)
	return percentile(rtts, 0.50), nil
}

// liveCalibration is the evidence liveRate was frozen on: five
// consecutive 2 s open-loop sets at 20 000 rps on the defining box (two
// shared vCPUs, Go 1.24, seed 11), none losing a request.
var liveCalibration = []liveCalibrationRun{
	{Sent: 39513, Received: 39513, GetP50Us: 28.2, GetP99Us: 1315.0},
	{Sent: 39513, Received: 39513, GetP50Us: 30.0, GetP99Us: 1165.2},
	{Sent: 39513, Received: 39513, GetP50Us: 30.3, GetP99Us: 514.5},
	{Sent: 39513, Received: 39513, GetP50Us: 30.1, GetP99Us: 1692.5},
	{Sent: 39513, Received: 39513, GetP50Us: 31.4, GetP99Us: 1123.6},
}
