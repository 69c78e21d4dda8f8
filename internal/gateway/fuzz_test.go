package gateway

import (
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/hw/radio"
	"repro/internal/session"
)

// fuzzFrame encodes one gateway frame.
func fuzzFrame(typ, seq byte, payload []byte) []byte {
	enc, err := (&radio.Frame{Type: typ, Seq: seq, Payload: payload}).AppendTo(nil)
	if err != nil {
		panic(err)
	}
	return enc
}

// fuzzPipe is one end of a net.Pipe whose write deadline is a no-op.
// net.Pipe keeps each deadline's timer, and through it the pipe, alive
// until the timer fires, so the writer's 30 s deadline would hold every
// fuzzed connection in memory for 30 s. The fuzzed peer always drains,
// so the deadline never matters here.
type fuzzPipe struct{ net.Conn }

func (fuzzPipe) SetWriteDeadline(time.Time) error { return nil }

// FuzzGatewayConn drives one connection handler with arbitrary bytes
// from the peer, then hangs up. Whatever the bytes, the handler must not
// panic, serve must return, no session may outlive the connection, and
// the gateway must still close.
func FuzzGatewayConn(f *testing.F) {
	dev := testDevice(f)

	ecg, z := testSamples(1, 600)
	enc := chunkEncoder{stream: 1}
	chunks, err := enc.appendChunks(nil, ecg, z)
	if err != nil {
		f.Fatal(err)
	}
	hello := fuzzFrame(TypeHello, 0, putU64(putU16([]byte{ProtocolVersion, HelloSubscribe}, 1), 7))
	closeStream := fuzzFrame(TypeCloseStream, 0, putU16(nil, 1))
	frameLen := func(b []byte) int { return 4 + int(b[3]) + 2 } // header, payload, CRC
	firstChunk := chunks[:frameLen(chunks)]

	// A well-formed session: open, stream, close.
	f.Add(slices.Concat(hello, chunks, closeStream))
	// Truncated mid-frame.
	f.Add(slices.Concat(hello, chunks[:len(chunks)/2]))
	// Bad CRC.
	bad := slices.Clone(hello)
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	// An oversize Hello payload: the full 255-byte frame.
	f.Add(fuzzFrame(TypeHello, 0, make([]byte, radio.MaxPayloadExt)))
	// A chunk for a stream that was never opened.
	f.Add(firstChunk)
	// A duplicate Hello on one stream id.
	f.Add(slices.Concat(hello, hello))
	// A sequence gap: the second chunk frame skipped.
	rest := chunks[len(firstChunk):]
	f.Add(slices.Concat(hello, firstChunk, rest[frameLen(rest):]))

	f.Fuzz(func(t *testing.T, data []byte) {
		g := New(dev, Config{Session: session.Config{Workers: 1, MaxPending: 4}})
		p1, p2 := net.Pipe()
		var peer sync.WaitGroup
		peer.Add(2)
		go func() {
			defer peer.Done()
			io.Copy(io.Discard, p2)
		}()
		go func() {
			defer peer.Done()
			p2.Write(data) // fails once a fatal frame made serve hang up
			p2.Close()
		}()
		deadline := time.NewTimer(10 * time.Second)
		defer deadline.Stop()
		wait := func(what string, fn func()) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				fn()
			}()
			select {
			case <-done:
			case <-deadline.C:
				t.Fatalf("%s did not return after the peer hung up", what)
			}
		}
		wait("serve", newConn(g, fuzzPipe{p1}).serve)
		wait("the peer", peer.Wait)
		if n := g.SessionsOpen(); n != 0 {
			t.Fatalf("%d sessions outlived their connection", n)
		}
		var err error
		wait("Gateway.Close", func() { err = g.Close() })
		if err != nil {
			t.Fatalf("Gateway.Close: %v", err)
		}
	})
}
