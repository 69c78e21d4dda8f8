package gateway

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/hw/radio"
	"repro/internal/session"
)

// writeTimeout bounds every frame write to a subscriber so one dead
// peer cannot wedge a writer goroutine (and through it, Close).
const writeTimeout = 30 * time.Second

// outMsg is one unframed outgoing message; the writer goroutine frames
// it (stamping the connection's egress seq) and writes it.
type outMsg struct {
	typ     byte
	payload []byte
}

// srvStream is one live ingest stream on a connection: its session and
// the receiving half of the delta codec.
type srvStream struct {
	sess *session.Session
	dec  chunkDecoder
	// ended is the code the session's last push failed with (eviction,
	// engine close), 0 while it is live. An ended stream discards the
	// chunks the device sent before its TypeErr notice arrived, and
	// answers the device's close with the code.
	ended byte
}

// conn is one gateway connection: a reader goroutine owning all ingest
// state (streams table, decoders) and a writer goroutine draining the
// bounded out queue. Session workers touch the connection only through
// sendEvent, which never blocks.
type conn struct {
	g  *Gateway
	nc net.Conn

	streams map[uint16]*srvStream // reader-owned
	subs    map[uint64]*fanout    // every fanout this conn is a target of

	outMu     sync.RWMutex
	out       chan outMsg
	outClosed bool

	writerDone chan struct{}
}

func newConn(g *Gateway, nc net.Conn) *conn {
	return &conn{
		g:          g,
		nc:         nc,
		streams:    make(map[uint16]*srvStream),
		subs:       make(map[uint64]*fanout),
		out:        make(chan outMsg, g.cfg.EventQueue),
		writerDone: make(chan struct{}),
	}
}

// sendEvent queues one encoded event for this subscriber; the payload
// is shared with the session's other subscribers and never written.
// Called synchronously from session workers (the Sink contract), so it
// must never block: a full queue drops the event and counts it.
func (c *conn) sendEvent(payload []byte) {
	c.outMu.RLock()
	defer c.outMu.RUnlock()
	if c.outClosed {
		c.g.eventsDropped.Add(1)
		return
	}
	select {
	case c.out <- outMsg{typ: TypeEvent, payload: payload}:
		c.g.eventsOut.Add(1)
	default:
		c.g.eventsDropped.Add(1)
	}
}

// send queues a control frame from the reader goroutine. Blocking is
// deliberate: a peer that won't drain its acks gets TCP backpressure,
// never an unbounded queue.
func (c *conn) send(typ byte, payload []byte) {
	c.out <- outMsg{typ: typ, payload: payload}
}

func (c *conn) sendAck(typ byte, stream uint16, code byte) {
	c.send(typ, []byte{byte(stream >> 8), byte(stream), code})
}

// writer drains the out queue, framing each message with the
// connection's egress seq counter into one reused buffer.
func (c *conn) writer() {
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(c.nc, 4096)
	var seq byte
	var scratch []byte
	dead := false
	flush := func() {
		if dead {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if bw.Flush() != nil {
			dead = true // drain the queue without writing from here on
		}
	}
	for m := range c.out {
		if !dead {
			scratch = scratch[:0]
			f := radio.Frame{Type: m.typ, Seq: seq, Payload: m.payload}
			var err error
			scratch, err = f.AppendTo(scratch)
			if err == nil {
				seq++
				if _, werr := bw.Write(scratch); werr != nil {
					dead = true
				}
			}
		}
		// Coalesce: only flush when the queue has gone idle.
		if len(c.out) == 0 {
			flush()
		}
	}
	flush()
}

// serve runs the connection: reader loop, then teardown. Any framing or
// protocol violation is fatal — TCP is reliable, so corruption means a
// broken peer.
func (c *conn) serve() {
	go c.writer()
	err := c.readLoop()
	if err != nil && !errors.Is(err, io.EOF) {
		c.g.protocolErrs.Add(1)
	}
	c.teardown()
}

// fatal notifies the peer the connection is condemned and returns the
// error that kills the read loop.
func (c *conn) fatal(code byte, err error) error {
	c.sendAck(TypeErr, fatalStream, code)
	return err
}

// readLoop drains frames off the wire and dispatches them.
//
// Aliasing invariant: every frame returned by sc.Next aliases the
// scanner's internal read buffer and is valid ONLY until the following
// Next call. The handlers below run synchronously inside this loop and
// must fully consume f.Payload (decode it, or copy the bytes) before
// returning; retaining a sub-slice of f.Payload past the handler is a
// use-after-overwrite bug that no test can catch deterministically.
// This zero-copy ingest path is why this file is on the unsafeguard
// analyzer's safelist: if pinned-buffer tricks (unsafe casts of the
// payload into sample slices) ever become necessary, they live here,
// under this invariant, and nowhere else.
func (c *conn) readLoop() error {
	sc := radio.NewScannerLimit(c.nc, radio.MaxPayloadExt)
	for {
		f, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return io.EOF
			}
			if errors.Is(err, radio.ErrBadCRC) || errors.Is(err, radio.ErrPayloadTooLarge) {
				return c.fatal(CodeProtocol, err)
			}
			return err // transport error
		}
		var herr error
		switch f.Type {
		case TypeHello:
			herr = c.handleHello(f)
		case TypeChunk:
			herr = c.handleChunk(f)
		case TypeCloseStream:
			herr = c.handleCloseStream(f)
		case TypeSub:
			herr = c.handleSub(f)
		default:
			herr = ErrBadPayload
		}
		if herr != nil {
			return c.fatal(CodeProtocol, herr)
		}
	}
}

// errCode maps a session error to its wire code.
func errCode(err error) byte {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, session.ErrDuplicateID):
		return CodeDuplicate
	case errors.Is(err, session.ErrQuarantined):
		return CodeQuarantined
	case errors.Is(err, session.ErrEngineClosed):
		return CodeEngineClosed
	case errors.Is(err, session.ErrSessionEvicted):
		return CodeEvicted
	case errors.Is(err, session.ErrSessionClosed):
		return CodeEvicted
	default:
		return CodeProtocol
	}
}

func (c *conn) handleHello(f *radio.Frame) error {
	if len(f.Payload) != 12 {
		return ErrBadPayload
	}
	ver, flags := f.Payload[0], f.Payload[1]
	stream := getU16(f.Payload[2:])
	id := getU64(f.Payload[4:])
	if ver != ProtocolVersion {
		c.sendAck(TypeHelloAck, stream, CodeBadVersion)
		return nil
	}
	if stream == fatalStream {
		return ErrBadPayload
	}
	if _, dup := c.streams[stream]; dup {
		return ErrBadPayload // stream ids are the client's to keep unique
	}
	if len(c.streams) >= c.g.cfg.MaxStreams {
		c.sendAck(TypeHelloAck, stream, CodeLimit)
		return nil
	}

	// Register the fan-out before the session exists so no early event
	// can slip past it; back out if the engine rejects the open.
	fo := &fanout{g: c.g, id: id}
	if flags&HelloSubscribe != 0 {
		fo.targets = append(fo.targets, c)
	}
	c.g.subMu.Lock()
	if _, live := c.g.subs[id]; live {
		c.g.subMu.Unlock()
		c.sendAck(TypeHelloAck, stream, CodeDuplicate)
		return nil
	}
	c.g.subs[id] = fo
	c.g.subMu.Unlock()

	sess, err := c.g.shardFor(id).Subscribe(id, fo)
	if err != nil {
		c.g.dropFanout(id, fo)
		c.sendAck(TypeHelloAck, stream, errCode(err))
		return nil
	}
	c.streams[stream] = &srvStream{sess: sess}
	if flags&HelloSubscribe != 0 {
		c.subs[id] = fo
	}
	c.sendAck(TypeHelloAck, stream, CodeOK)
	return nil
}

func (c *conn) handleChunk(f *radio.Frame) error {
	if len(f.Payload) < chunkHeader {
		return ErrBadPayload
	}
	stream := getU16(f.Payload)
	st, ok := c.streams[stream]
	if !ok {
		return ErrBadPayload // chunk for a stream that was never opened
	}
	if st.ended != 0 {
		return nil
	}
	ecg, z, err := st.dec.decodeChunk(f)
	if err != nil {
		return err // seq gap or malformed payload: delta chain unsafe
	}
	c.g.framesIn.Add(1)
	c.g.samplesIn.Add(uint64(len(ecg)))
	if len(ecg) == 0 {
		return nil
	}
	// The blocking ingest path: PushOwned parks here when the session's
	// bounded backlog is full, which stalls this reader and lets TCP
	// flow control reach the device. Zero-copy: the decoder's buffer is
	// handed to the engine outright.
	if err := st.sess.PushOwned(ecg, z); err != nil {
		// Evicted or engine-closed mid-stream: a per-stream notice, not
		// a connection error. The stream stays ended until the device
		// closes it.
		st.ended = errCode(err)
		c.sendAck(TypeErr, stream, st.ended)
	}
	return nil
}

func (c *conn) handleCloseStream(f *radio.Frame) error {
	if len(f.Payload) != 2 {
		return ErrBadPayload
	}
	stream := getU16(f.Payload)
	st, ok := c.streams[stream]
	if !ok {
		c.sendAck(TypeCloseAck, stream, CodeUnknownStream)
		return nil
	}
	delete(c.streams, stream)
	if st.ended != 0 {
		c.sendAck(TypeCloseAck, stream, st.ended)
		return nil
	}
	// Blocks until the flush has run and the final events (lookahead
	// tail beats, KindSessionClosed) have been emitted — so the
	// CloseAck is queued strictly after the session's last event.
	err := st.sess.Close()
	c.sendAck(TypeCloseAck, stream, errCode(err))
	return nil
}

func (c *conn) handleSub(f *radio.Frame) error {
	if len(f.Payload) != 8 {
		return ErrBadPayload
	}
	id := getU64(f.Payload)
	fo, live := c.g.lookup(id)
	if !live {
		c.send(TypeSubAck, append(putU64(nil, id), CodeNotFound))
		return nil
	}
	if _, dup := c.subs[id]; !dup {
		fo.add(c)
		c.subs[id] = fo
	}
	c.send(TypeSubAck, append(putU64(nil, id), CodeOK))
	return nil
}

// teardown runs when the read loop exits: detach from every fan-out
// first (no more events queued for this peer), flush-close the sessions
// this connection owned, then stop the writer.
func (c *conn) teardown() {
	for id, fo := range c.subs {
		fo.removeConn(c)
		delete(c.subs, id)
	}
	for stream, st := range c.streams {
		delete(c.streams, stream)
		st.sess.Close() // flush; remaining subscribers get final events
	}
	c.outMu.Lock()
	c.outClosed = true
	close(c.out)
	c.outMu.Unlock()
	<-c.writerDone
	c.nc.Close()
}
