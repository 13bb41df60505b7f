package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
)

func TestWireFrameRoundTrip(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), {}, []byte("a much longer record payload \x00 with zeros")}
	enc := AppendWireFrame(nil, recs, 0)
	enc = AppendWireFrame(enc, nil, WireFlagEOS)

	r := bytes.NewReader(enc)
	var f WireFrame
	if err := ReadWireFrame(r, &f, 0); err != nil {
		t.Fatal(err)
	}
	if f.EOS() || len(f.Recs) != len(recs) {
		t.Fatalf("frame 1: eos=%v recs=%d", f.EOS(), len(f.Recs))
	}
	for i := range recs {
		if !bytes.Equal(f.Recs[i], recs[i]) {
			t.Fatalf("rec %d: got %q want %q", i, f.Recs[i], recs[i])
		}
	}
	if err := ReadWireFrame(r, &f, 0); err != nil {
		t.Fatal(err)
	}
	if !f.EOS() || len(f.Recs) != 0 || f.Err() != nil {
		t.Fatalf("frame 2: eos=%v recs=%d err=%v", f.EOS(), len(f.Recs), f.Err())
	}
	if err := ReadWireFrame(r, &f, 0); err != io.EOF {
		t.Fatalf("after last frame: %v", err)
	}
}

func TestWireFrameError(t *testing.T) {
	enc := AppendWireControl(nil, WireFlagEOS|WireFlagErr, []byte("scan failed: page torn"))

	r := bytes.NewReader(enc)
	var f WireFrame
	if err := ReadWireFrame(r, &f, 0); err != nil {
		t.Fatal(err)
	}
	if !f.EOS() || f.Err() == nil || !strings.Contains(f.Err().Error(), "page torn") {
		t.Fatalf("error frame: eos=%v err=%v", f.EOS(), f.Err())
	}
}

func TestWireFrameTruncationAndCorruption(t *testing.T) {
	full := AppendWireFrame(nil, [][]byte{[]byte("hello"), []byte("world")}, 0)
	// Every strict prefix must fail with EOF (empty) or ErrUnexpectedEOF.
	for cut := 0; cut < len(full); cut++ {
		var f WireFrame
		err := ReadWireFrame(bytes.NewReader(full[:cut]), &f, 0)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: %v", err)
			}
			continue
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: %v", cut, err)
		}
	}

	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xff
	var f WireFrame
	var we *WireError
	if err := ReadWireFrame(bytes.NewReader(bad), &f, 0); !errors.As(err, &we) {
		t.Fatalf("bad magic: %v", err)
	}

	// Oversized length prefix must error before allocating.
	huge := appendWireHeader(nil, 0, 1<<30)
	if err := ReadWireFrame(bytes.NewReader(huge), &f, 0); !errors.As(err, &we) {
		t.Fatalf("huge prefix: %v", err)
	}

	// A record length overrunning the payload.
	overrun := append([]byte(nil), full...)
	binary.BigEndian.PutUint32(overrun[wireHeaderLen:], 1<<20)
	if err := ReadWireFrame(bytes.NewReader(overrun), &f, 0); !errors.As(err, &we) {
		t.Fatalf("overrun record: %v", err)
	}
}

// TestWireSenderOverTCP drives the sender/decoder pair over a real TCP
// loopback connection: records in, identical records out, EOS observed,
// and an error message surviving the trip.
func TestWireSenderOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const n = 1000
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		s := NewWireSender(conn, 7)
		for i := 0; i < n; i++ {
			if err := s.Add([]byte{byte(i), byte(i >> 8)}); err != nil {
				return
			}
		}
		_ = s.CloseEOS("deliberate failure")
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var f WireFrame
	got, sawErr := 0, false
	for {
		if err := ReadWireFrame(conn, &f, 0); err != nil {
			t.Fatalf("after %d recs: %v", got, err)
		}
		for i, r := range f.Recs {
			want := got + i
			if len(r) != 2 || r[0] != byte(want) || r[1] != byte(want>>8) {
				t.Fatalf("rec %d corrupted: %v", want, r)
			}
		}
		got += len(f.Recs)
		if e := f.Err(); e != nil {
			sawErr = strings.Contains(e.Error(), "deliberate failure")
		}
		if f.EOS() {
			break
		}
	}
	if got != n || !sawErr {
		t.Fatalf("got %d records, sawErr=%v", got, sawErr)
	}
}

// TestWireRoundTripZeroAlloc holds the wire's steady state to zero heap
// allocations per frame: 83 records staged and flushed by a WireSender,
// then decoded by ReadWireFrame into a reused WireFrame. Every arena and
// scratch buffer keeps its capacity across frames.
func TestWireRoundTripZeroAlloc(t *testing.T) {
	var link bytes.Buffer
	s := NewWireSender(&link, 83)
	rec := intSchema.MustEncode(record.Int(7))
	var f WireFrame
	cycle := func() {
		for i := 0; i < 83; i++ {
			if err := s.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ReadWireFrame(&link, &f, 0); err != nil || len(f.Recs) != 83 {
			t.Fatalf("frame of %d records: %v", len(f.Recs), err)
		}
	}
	cycle() // the buffers grow to their steady size once
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("%.2f allocations per frame, want 0", avg)
	}
}

// closeCounter counts the Close calls and record pulls of its subtree.
type closeCounter struct {
	Iterator
	closes, pulled int
}

func (c *closeCounter) NextBatch(b *Batch) error {
	err := c.Iterator.NextBatch(b)
	c.pulled += b.Len()
	return err
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.Iterator.Close()
}

// wireStream is what the reading end of a link saw.
type wireStream struct {
	vals   []int64 // the int records, in arrival order
	frames int
	eos    int   // frames carrying WireFlagEOS
	err    error // the EOS frame's error
	sent   error // what SendWire returned
}

// sendOverPipe runs SendWire into one end of a net.Pipe and decodes the
// other end up to EOS.
func sendOverPipe(t *testing.T, it Iterator, packetSize, batchSize int, skip int64) wireStream {
	t.Helper()
	rd, wr := net.Pipe()
	defer rd.Close()
	sent := make(chan error, 1)
	go func() {
		sent <- SendWire(NewWireSender(wr, packetSize), it, batchSize, skip)
		wr.Close()
	}()
	var st wireStream
	var f WireFrame
	for st.eos == 0 {
		if err := ReadWireFrame(rd, &f, 0); err != nil {
			t.Fatalf("frame %d: %v", st.frames, err)
		}
		st.frames++
		for _, r := range f.Recs {
			st.vals = append(st.vals, intSchema.GetInt(r, 0))
		}
		if f.EOS() {
			st.eos++
			st.err = f.Err()
		}
	}
	st.sent = <-sent
	return st
}

func TestSendWireInOrderThenEOS(t *testing.T) {
	env := newTestEnv(t, 64)
	const n, packet = 500, 7
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	f := env.makeInts(t, "t", vals...)
	src := &closeCounter{Iterator: scanOf(t, f)}
	st := sendOverPipe(t, src, packet, 0, 0)
	if st.sent != nil || st.err != nil {
		t.Fatalf("sent %v, EOS error %v", st.sent, st.err)
	}
	if !equalInts(st.vals, vals) {
		t.Fatalf("records out of order or lost: got %d", len(st.vals))
	}
	// The last data frame carries the EOS flag: no bare EOS frame.
	if want := (n + packet - 1) / packet; st.frames != want || st.eos != 1 {
		t.Fatalf("%d frames (%d EOS), want %d with the last one EOS", st.frames, st.eos, want)
	}
	if src.closes != 1 {
		t.Fatalf("subtree closed %d times", src.closes)
	}
	env.checkNoPinLeak(t)
}

func TestSendWireSubtreeError(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeInts(t, "t", 5, 0, 7)
	fl, err := NewFilterExpr(env.Env, scanOf(t, f), "10 / v > 0", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	st := sendOverPipe(t, fl, 0, 0, 0)
	if st.err == nil || !strings.Contains(st.err.Error(), "division by zero") {
		t.Fatalf("EOS frame error = %v, want division by zero", st.err)
	}
	if st.sent == nil || !strings.Contains(st.sent.Error(), "division by zero") {
		t.Fatalf("SendWire returned %v", st.sent)
	}
	env.checkNoPinLeak(t)
}

// TestSendWireSkip is skip-replay: a resumed fragment drops exactly the
// records its predecessor already delivered, whatever the batch size.
func TestSendWireSkip(t *testing.T) {
	env := newTestEnv(t, 64)
	const n = 500
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	f := env.makeInts(t, "t", vals...)
	for _, batch := range []int{1, 7, 64} {
		for _, skip := range []int64{0, 1, 6, 7, 83, 499, 500, 600} {
			st := sendOverPipe(t, scanOf(t, f), 0, batch, skip)
			if st.sent != nil {
				t.Fatal(st.sent)
			}
			want := vals[min(skip, n):]
			if !equalInts(st.vals, want) {
				t.Fatalf("batch=%d skip=%d: got %d records starting %v, want %d", batch, skip, len(st.vals), st.vals[:min(1, len(st.vals))], len(want))
			}
		}
	}
	env.checkNoPinLeak(t)
}

// TestSendWireReaderGone closes the reading end mid-stream: SendWire
// stops pulling, closes its subtree and returns the write error, not an
// end of stream, and the source pool keeps no pin.
func TestSendWireReaderGone(t *testing.T) {
	env := newTestEnv(t, 64)
	const n = 5000
	f := env.makeInts(t, "t", shuffled(n, 9)...)
	src := &closeCounter{Iterator: scanOf(t, f)}
	rd, wr := net.Pipe()
	sent := make(chan error, 1)
	go func() { sent <- SendWire(NewWireSender(wr, 10), src, 0, 0) }()
	var fr WireFrame
	if err := ReadWireFrame(rd, &fr, 0); err != nil || fr.EOS() || len(fr.Recs) != 10 {
		t.Fatalf("first frame: %d records, eos=%v, %v", len(fr.Recs), fr.EOS(), err)
	}
	rd.Close()
	if err := <-sent; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("SendWire returned %v, want the write error", err)
	}
	if src.closes != 1 || src.pulled >= n {
		t.Fatalf("subtree closed %d times after %d of %d records", src.closes, src.pulled, n)
	}
	env.checkNoPinLeak(t)
}
