package gateway

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/hw/radio"
	"repro/internal/physio"
	"repro/internal/session"
	"repro/internal/wal"
)

// testDevice builds the shared device model.
func testDevice(t testing.TB) *core.Device {
	t.Helper()
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// testStreams acquires per-session input channels: a few base physio
// acquisitions, scaled per session ID so every stream is distinct.
func testStreams(t testing.TB, dev *core.Device, ids []uint64, seconds float64) map[uint64][2][]float64 {
	t.Helper()
	var base [][2][]float64
	for sid := 1; sid <= 2; sid++ {
		sub, _ := physio.SubjectByID(sid)
		acq, err := dev.Acquire(&sub, seconds)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, [2][]float64{acq.ECG, acq.Z})
	}
	out := make(map[uint64][2][]float64, len(ids))
	for _, id := range ids {
		b := base[id%uint64(len(base))]
		scale := 1 + float64(id%97)/97e3
		ecg := make([]float64, len(b[0]))
		z := make([]float64, len(b[1]))
		for i := range ecg {
			ecg[i] = b[0][i] * scale
			z[i] = b[1][i] * scale
		}
		out[id] = [2][]float64{ecg, z}
	}
	return out
}

// evHash folds an event's canonical wal encoding into a session hash —
// the same 196 bytes the gateway puts on the wire, so two event streams
// hash equal iff they are field-identical in the same order.
type evHash struct {
	h   map[uint64]uint64
	buf []byte
}

func newEvHash() *evHash { return &evHash{h: make(map[uint64]uint64)} }

func (r *evHash) add(e *event.Event) {
	r.buf = wal.EncodeEvent(r.buf[:0], e)
	h := fnv.New64a()
	var seed [8]byte
	prev := r.h[e.Session]
	for i := 0; i < 8; i++ {
		seed[i] = byte(prev >> (8 * i))
	}
	h.Write(seed[:])
	h.Write(r.buf)
	r.h[e.Session] = h.Sum64()
}

// startGateway serves g on an ephemeral loopback port.
func startGateway(t testing.TB, g *Gateway) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(ln)
	return ln.Addr().String()
}

// referenceHashes computes the in-process ground truth: the same
// chunk-framed sample stream — identical frame boundaries, identical
// bits, delivered by PushOwned to an identically-configured local
// engine — hashed per session with the canonical event codec.
func referenceHashes(t *testing.T, dev *core.Device, cfg session.Config,
	ids []uint64, streams map[uint64][2][]float64, chunk int) map[uint64]uint64 {
	t.Helper()
	eng := session.NewEngine(dev, cfg)
	hashes := newEvHash()
	var mu sync.Mutex
	sessions := make(map[uint64]*session.Session, len(ids))
	for _, id := range ids {
		id := id
		s, err := eng.Subscribe(id, event.Func(func(e event.Event) {
			mu.Lock()
			hashes.add(&e)
			mu.Unlock()
		}))
		if err != nil {
			t.Fatal(err)
		}
		sessions[id] = s
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			in := streams[id]
			if err := ReplayChunks(sessions[id], in[0], in[1], chunk); err != nil {
				t.Error(err)
				return
			}
			if err := sessions[id].Close(); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return hashes.h
}

// TestLoopbackDeterminism is the tentpole proof: a fleet of sessions
// driven over real TCP through the gateway produces, per session, an
// event stream hash-identical to the same chunks pushed in-process —
// for every chunking (including 1-sample) and any shard/worker count.
func TestLoopbackDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fleet in -short")
	}
	dev := testDevice(t)
	ids := []uint64{11, 12, 13, 14, 15, 16}
	streams := testStreams(t, dev, ids, 6.0)

	for _, tc := range []struct {
		chunk, shards, workers int
	}{
		{1, 1, 1},
		{7, 3, 4},
		{50, 2, 2},
	} {
		t.Run(fmt.Sprintf("chunk%d_shards%d_workers%d", tc.chunk, tc.shards, tc.workers), func(t *testing.T) {
			scfg := session.Config{Workers: tc.workers, MaxPending: 8}
			want := referenceHashes(t, dev, scfg, ids, streams, tc.chunk)

			g := New(dev, Config{Shards: tc.shards, Session: scfg})
			addr := startGateway(t, g)
			c, err := Dial(addr, 256)
			if err != nil {
				t.Fatal(err)
			}

			got := newEvHash()
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				for e := range c.Events() {
					got.add(&e)
				}
			}()

			var wg sync.WaitGroup
			for i, id := range ids {
				cs, err := c.Open(uint16(i+1), id, true)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(cs *ClientStream, id uint64) {
					defer wg.Done()
					in := streams[id]
					for i := 0; i < len(in[0]); i += tc.chunk {
						end := i + tc.chunk
						if end > len(in[0]) {
							end = len(in[0])
						}
						if err := cs.Push(in[0][i:end], in[1][i:end]); err != nil {
							t.Error(err)
							return
						}
					}
					if err := cs.Close(); err != nil {
						t.Error(err)
					}
				}(cs, id)
			}
			wg.Wait()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			<-closed

			st := g.Stats()
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			if st.EventsDropped != 0 {
				t.Fatalf("determinism run dropped %d events; queue was undersized for the proof", st.EventsDropped)
			}
			if len(got.h) != len(ids) {
				t.Fatalf("events for %d sessions, want %d", len(got.h), len(ids))
			}
			for _, id := range ids {
				if got.h[id] != want[id] {
					t.Errorf("session %d: gateway hash %x != in-process %x", id, got.h[id], want[id])
				}
			}
			if st.FramesIn == 0 || st.SamplesIn == 0 {
				t.Fatalf("stats recorded no ingest: %+v", st)
			}
		})
	}
}

// TestCrossConnSubscriber proves fan-out: a second connection joining a
// live session's event stream sees exactly the owner's events.
func TestCrossConnSubscriber(t *testing.T) {
	dev := testDevice(t)
	ids := []uint64{42}
	streams := testStreams(t, dev, ids, 4.0)
	g := New(dev, Config{Session: session.Config{Workers: 2, MaxPending: 8}})
	defer g.Close()
	addr := startGateway(t, g)

	owner, err := Dial(addr, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	watcher, err := Dial(addr, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	cs, err := owner.Open(1, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := watcher.Subscribe(42); err != nil {
		t.Fatal(err)
	}
	if err := watcher.Subscribe(42); err != nil {
		t.Fatal(err) // idempotent re-subscribe
	}

	// collect hashes a connection's events; sessionDone closes when the
	// final KindSessionClosed of session 42 has been folded in.
	collect := func(c *Client) (*evHash, chan struct{}, chan struct{}) {
		h := newEvHash()
		done := make(chan struct{})
		sessionDone := make(chan struct{})
		go func() {
			defer close(done)
			for e := range c.Events() {
				h.add(&e)
				if e.Kind == event.KindSessionClosed && e.Session == 42 {
					close(sessionDone)
				}
			}
		}()
		return h, done, sessionDone
	}
	oh, odone, _ := collect(owner)
	wh, wdone, wclosed := collect(watcher)

	in := streams[42]
	for i := 0; i < len(in[0]); i += 25 {
		end := i + 25
		if end > len(in[0]) {
			end = len(in[0])
		}
		if err := cs.Push(in[0][i:end], in[1][i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	owner.Close()
	<-odone
	// The watcher's KindSessionClosed is its stream end; wait for it.
	select {
	case <-wclosed:
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never saw the session close")
	}
	watcher.Close()
	<-wdone
	if oh.h[42] == 0 {
		t.Fatal("owner saw no events")
	}
	if wh.h[42] != oh.h[42] {
		t.Fatalf("watcher hash %x != owner hash %x", wh.h[42], oh.h[42])
	}
}

// TestDuplicateAndNotFound pins the ack codes: opening a live ID twice
// is rejected, subscribing to a dead ID is rejected.
func TestDuplicateAndNotFound(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{Session: session.Config{Workers: 1, MaxPending: 4}})
	defer g.Close()
	addr := startGateway(t, g)

	a, err := Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Open(1, 7, false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(1, 7, false); !errors.Is(err, ErrRejected) {
		t.Fatalf("duplicate open: err=%v, want ErrRejected", err)
	}
	if err := b.Subscribe(999); !errors.Is(err, ErrRejected) {
		t.Fatalf("subscribe to dead id: err=%v, want ErrRejected", err)
	}
	if err := b.Subscribe(7); err != nil {
		t.Fatalf("subscribe to live id: %v", err)
	}
}

// TestSeqGapKillsConnection pins the strict transport stance: a chunk
// arriving out of sequence condemns the connection (the delta chain is
// broken; resyncing would corrupt samples silently).
func TestSeqGapKillsConnection(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{Session: session.Config{Workers: 1, MaxPending: 4}})
	defer g.Close()
	addr := startGateway(t, g)

	c, err := Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs, err := c.Open(1, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Push([]float64{1, 2}, []float64{40, 41}); err != nil {
		t.Fatal(err)
	}
	cs.enc.seq++ // simulate a lost frame
	if err := cs.Push([]float64{3}, []float64{42}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatal("connection survived a sequence gap")
	}
	if err := c.Err(); err == nil {
		t.Fatal("client recorded no fatal error")
	}
	if g.Stats().ProtocolErrs == 0 {
		t.Fatal("gateway did not count the protocol error")
	}
}

// TestGarbageKillsConnection pins the same stance one layer down: a
// framing-level CRC error on the reliable transport is fatal, and the
// peer is told so with a condemned-connection notice.
func TestGarbageKillsConnection(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{Session: session.Config{Workers: 1}})
	defer g.Close()
	addr := startGateway(t, g)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	f := radio.Frame{Type: TypeHello, Seq: 0, Payload: make([]byte, 12)}
	enc, err := f.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0xFF // corrupt the CRC
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	sc := radio.NewScannerLimit(nc, radio.MaxPayloadExt)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	rf, err := sc.Next()
	if err != nil {
		t.Fatalf("expected a condemnation notice, got %v", err)
	}
	if rf.Type != TypeErr || getU16(rf.Payload) != fatalStream || rf.Payload[2] != CodeProtocol {
		t.Fatalf("unexpected notice: type %#x payload % x", rf.Type, rf.Payload)
	}
	if _, err := sc.Next(); err == nil {
		t.Fatal("connection stayed open after a CRC error")
	}
}

// TestHelloVersion1Rejected pins the codec revision at the handshake: a
// version-1 peer, which expects 204-byte event frames, is refused with
// CodeBadVersion before any session opens.
func TestHelloVersion1Rejected(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{Session: session.Config{Workers: 1}})
	defer g.Close()
	addr := startGateway(t, g)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := putU64(putU16([]byte{1, HelloSubscribe}, 3), 42)
	f := radio.Frame{Type: TypeHello, Payload: hello}
	enc, err := f.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	sc := radio.NewScannerLimit(nc, radio.MaxPayloadExt)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	rf, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != TypeHelloAck || getU16(rf.Payload) != 3 || rf.Payload[2] != CodeBadVersion {
		t.Fatalf("unexpected ack: type %#x payload % x", rf.Type, rf.Payload)
	}
	if n := g.SessionsOpen(); n != 0 {
		t.Fatalf("%d sessions opened for a version-1 hello", n)
	}
}

// TestEventQueueBounded pins the egress backpressure contract at the
// unit level: a subscriber queue never grows past its bound — overflow
// is dropped and counted, and a worker emitting into it never blocks.
func TestEventQueueBounded(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{EventQueue: 2, Session: session.Config{Workers: 1}})
	defer g.Close()
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	c := newConn(g, p1) // writer never started: the queue cannot drain
	payload := wal.EncodeEvent(nil, &event.Event{Kind: event.KindBeat, Session: 1})
	for i := 0; i < 5; i++ {
		c.sendEvent(payload)
	}
	if got := g.Stats().EventsOut; got != 2 {
		t.Fatalf("queued %d events, want the bound 2", got)
	}
	if got := g.Stats().EventsDropped; got != 3 {
		t.Fatalf("dropped %d events, want 3", got)
	}
	// Post-teardown emits (a worker racing a disconnect) are dropped,
	// never a panic on the closed queue.
	c.outMu.Lock()
	c.outClosed = true
	close(c.out)
	c.outMu.Unlock()
	c.sendEvent(payload)
	if got := g.Stats().EventsDropped; got != 4 {
		t.Fatalf("post-close emit not drop-counted: %d", got)
	}
}

// TestFanoutSharesEventFrames pins the fan-out's encode-once law: the
// two subscribers of one session queue one shared payload per event,
// the event's encoding, and their writers put byte-identical frames on
// the wire.
func TestFanoutSharesEventFrames(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{Session: session.Config{Workers: 1}})
	defer g.Close()
	var conns [2]*conn
	var peers [2]net.Conn
	for i := range conns {
		p1, p2 := net.Pipe()
		defer p1.Close()
		defer p2.Close()
		conns[i], peers[i] = newConn(g, p1), p2
	}
	fo := &fanout{g: g, id: 9, targets: conns[:]}
	evs := []event.Event{
		{Kind: event.KindBeat, Session: 9, Beat: 3, TimeS: 2.5,
			Params: hemo.BeatParams{TimeS: 1.7, HR: 71, SVKub: 64.5, CO: 4.6, Quality: 0.83, Accepted: true}},
		{Kind: event.KindHealth, Session: 9, Beat: 3, TimeS: 2.5, AcceptEWMA: 0.4, Below: true, Floor: 0.45},
		{Kind: event.KindSessionClosed, Session: 9, Beat: 4, TimeS: 3, Accepted: 3, Emitted: 4},
	}

	// Writers not started: the queued payloads are the encoding, shared.
	fo.Emit(evs[0])
	a, b := <-conns[0].out, <-conns[1].out
	if want := wal.EncodeEvent(nil, &evs[0]); string(a.payload) != string(want) || &a.payload[0] != &b.payload[0] {
		t.Fatalf("payloads %x and %x (shared %v), want the one encoding %x", a.payload, b.payload, &a.payload[0] == &b.payload[0], want)
	}

	var wire []byte
	for i, e := range evs {
		f := radio.Frame{Type: TypeEvent, Seq: byte(i), Payload: wal.EncodeEvent(nil, &e)}
		var err error
		if wire, err = f.AppendTo(wire); err != nil {
			t.Fatal(err)
		}
	}
	var got [2][]byte
	var wg sync.WaitGroup
	for i, c := range conns {
		go c.writer()
		got[i] = make([]byte, len(wire))
		wg.Add(1)
		go func() {
			defer wg.Done()
			peers[i].SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(peers[i], got[i]); err != nil {
				t.Errorf("subscriber %d: %v", i, err)
			}
		}()
	}
	for _, e := range evs {
		fo.Emit(e)
	}
	wg.Wait()
	for i, c := range conns {
		if string(got[i]) != string(wire) {
			t.Errorf("subscriber %d read %x, want %x", i, got[i], wire)
		}
		c.outMu.Lock()
		c.outClosed = true
		close(c.out)
		c.outMu.Unlock()
		<-c.writerDone
	}
}

// TestConnDropFlushesSessions pins disconnect semantics: when a client
// vanishes mid-stream, the gateway flush-closes its sessions (remaining
// subscribers see the final events) instead of leaking them.
// TestEvictedStreamKeepsConnection pins the per-stream stance of an
// eviction: the chunks a device sent before the TypeErr notice reached
// it are discarded, its close is answered with CodeEvicted, and the other
// streams on the connection carry on.
func TestEvictedStreamKeepsConnection(t *testing.T) {
	dev := testDevice(t)
	g := New(dev, Config{Session: session.Config{Workers: 1, MaxPending: 4,
		Health: session.HealthConfig{EvictBelowRate: 0.45, EvictAfterS: 20}}})
	defer g.Close()
	addr := startGateway(t, g)
	c, err := Dial(addr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead, err := c.Open(1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Open(2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// One Push writes all 40 s at once, so chunks are in flight long
	// after the eviction (about 25 s in).
	ecg, z := physio.DeadContact(1, int(40*dev.Config().FS))
	if err := dead.Push(ecg, z); err != nil {
		t.Fatal(err)
	}
	if err := dead.Close(); !errors.Is(err, ErrRejected) || !strings.HasSuffix(err.Error(), fmt.Sprintf("(code %d)", CodeEvicted)) {
		t.Fatalf("close of the evicted stream: err=%v, want code %d", err, CodeEvicted)
	}
	in := testStreams(t, dev, []uint64{2}, 4)[2]
	if err := live.Push(in[0], in[1]); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatalf("live stream on the same connection: %v", err)
	}
	st := g.Stats()
	if c.Err() != nil || st.ProtocolErrs != 0 || st.Shards[0].Evicted != 1 {
		t.Fatalf("conn err %v, %d protocol errors, %d evicted", c.Err(), st.ProtocolErrs, st.Shards[0].Evicted)
	}
}

func TestConnDropFlushesSessions(t *testing.T) {
	dev := testDevice(t)
	ids := []uint64{77}
	streams := testStreams(t, dev, ids, 4.0)
	g := New(dev, Config{Session: session.Config{Workers: 1, MaxPending: 8}})
	defer g.Close()
	addr := startGateway(t, g)

	watcher, err := Dial(addr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	c, err := Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := c.Open(1, 77, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := watcher.Subscribe(77); err != nil {
		t.Fatal(err)
	}
	in := streams[77]
	if err := cs.Push(in[0], in[1]); err != nil {
		t.Fatal(err)
	}
	c.Close() // vanish without CloseStream

	deadline := time.After(10 * time.Second)
	for {
		var closed bool
		select {
		case e, ok := <-watcher.Events():
			if !ok {
				t.Fatal("watcher connection died")
			}
			closed = e.Kind == event.KindSessionClosed && e.Session == 77
		case <-deadline:
			t.Fatalf("session not flush-closed after disconnect; %d still open", g.SessionsOpen())
		}
		if closed {
			break
		}
	}
	// The final event is delivered on the session's worker just before
	// the engine unregisters the session, so the count may lag it
	// briefly; a leaked session never leaves.
	for g.SessionsOpen() != 0 {
		select {
		case <-deadline:
			t.Fatalf("%d sessions still open after disconnect flush", g.SessionsOpen())
		case <-time.After(time.Millisecond):
		}
	}
}

// BenchmarkGatewayOpen measures what a device waits for before it can
// stream: one Hello→HelloAck round trip over loopback per op, server
// side included (run with -benchmem). Streams are closed in batches
// off the clock, so the gateway never holds more than one batch open.
// "plain" opens without subscribing; "subscribe" sets HelloSubscribe,
// so each open also takes the session's event fan-out slot (a goroutine
// drains the closes' events).
func BenchmarkGatewayOpen(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchGatewayOpen(b, false) })
	b.Run("subscribe", func(b *testing.B) { benchGatewayOpen(b, true) })
}

func benchGatewayOpen(b *testing.B, subscribe bool) {
	dev := testDevice(b)
	g := New(dev, Config{})
	defer g.Close()
	c, err := Dial(startGateway(b, g), 64)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	go func() {
		for range c.Events() {
		}
	}()
	const batch = 1024
	open := make([]*ClientStream, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := c.Open(uint16(len(open)), uint64(i), subscribe)
		if err != nil {
			b.Fatal(err)
		}
		if open = append(open, cs); len(open) == batch {
			b.StopTimer()
			for _, cs := range open {
				if err := cs.Close(); err != nil {
					b.Fatal(err)
				}
			}
			open = open[:0]
			b.StartTimer()
		}
	}
}
