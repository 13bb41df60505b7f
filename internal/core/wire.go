package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

// The netexchange wire format. One frame carries one wire packet — the
// unit the shared-nothing exchange already ships between "machines" —
// as a length-prefixed binary message, so the same packet/record
// encoding that crosses the in-process loopback crosses a real TCP
// connection unchanged:
//
//	frame  := header payload
//	header := magic(4) flags(1) reserved(3) payloadLen(4)   big endian
//	payload (data frames)  := { recLen(4) recBytes(recLen) }*
//	payload (error frames) := utf-8 error message
//	payload (hello frames) := opaque handshake bytes (dist uses JSON)
//
// A frame with WireFlagEOS terminates one producer's stream on the
// connection; WireFlagErr marks the payload as an error message instead
// of records (EOS|Err is how a producer reports failure); WireFlagHello
// marks the connection-opening handshake frame the distributed layer
// uses to say which query/fragment/producer the connection carries.
const (
	wireMagic = 0x56574631 // "VWF1"

	// WireFlagEOS marks the sender's final frame on this stream.
	WireFlagEOS = 1 << 0
	// WireFlagErr marks the payload as an error message, not records.
	WireFlagErr = 1 << 1
	// WireFlagHello marks the handshake frame that opens a connection.
	WireFlagHello = 1 << 2

	wireHeaderLen = 12

	// MaxWireFrame bounds one frame's payload: a decoder never allocates
	// more than this no matter what the length prefix claims, so a
	// corrupt or hostile prefix cannot balloon memory.
	MaxWireFrame = 16 << 20
)

// WireFrame is one decoded frame. Recs windows into the frame's own
// arena (buf), which keeps its capacity across Decode calls — a reader
// reusing one WireFrame allocates only while the largest frame seen so
// far still grows.
type WireFrame struct {
	Flags byte
	Recs  [][]byte
	Msg   []byte // error message (WireFlagErr) or hello payload
	buf   []byte
}

// EOS reports whether this is the sender's final frame.
func (f *WireFrame) EOS() bool { return f.Flags&WireFlagEOS != 0 }

// Err returns the carried error, or nil.
func (f *WireFrame) Err() error {
	if f.Flags&WireFlagErr == 0 || len(f.Msg) == 0 {
		return nil
	}
	return fmt.Errorf("core: wire: remote error: %s", f.Msg)
}

// reset clears the frame for reuse, keeping arena capacity.
func (f *WireFrame) reset() {
	for i := range f.Recs {
		f.Recs[i] = nil
	}
	f.Recs = f.Recs[:0]
	f.Msg = nil
	f.buf = f.buf[:0]
	f.Flags = 0
}

// AppendWireFrame encodes one data frame carrying the record images and
// appends it to dst. flags must not include WireFlagErr or WireFlagHello
// (use AppendWireControl for those).
func AppendWireFrame(dst []byte, recs [][]byte, flags byte) []byte {
	payload := 0
	for _, r := range recs {
		payload += 4 + len(r)
	}
	dst = appendWireHeader(dst, flags, payload)
	for _, r := range recs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r)))
		dst = append(dst, r...)
	}
	return dst
}

// AppendWireControl encodes a control frame (error or hello) whose
// payload is an opaque message.
func AppendWireControl(dst []byte, flags byte, msg []byte) []byte {
	dst = appendWireHeader(dst, flags, len(msg))
	return append(dst, msg...)
}

func appendWireHeader(dst []byte, flags byte, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, wireMagic)
	dst = append(dst, flags, 0, 0, 0)
	return binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
}

// WireError describes a malformed frame. It is distinct from transport
// errors (io.EOF and friends) so a receiver can tell "the peer went
// away" from "the peer is speaking garbage".
type WireError struct{ What string }

func (e *WireError) Error() string { return "core: wire: " + e.What }

// ReadWireFrame reads and decodes one frame from r into f, reusing f's
// arena. maxFrame bounds the payload a single frame may claim (0 means
// MaxWireFrame); a larger length prefix fails without allocating. A
// clean EOF before the first header byte returns io.EOF; a truncation
// anywhere later returns io.ErrUnexpectedEOF.
func ReadWireFrame(r io.Reader, f *WireFrame, maxFrame int) error {
	f.reset()
	if maxFrame <= 0 {
		maxFrame = MaxWireFrame
	}
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return err // io.EOF here means a clean end of stream
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != wireMagic {
		return &WireError{What: fmt.Sprintf("bad magic %#08x", got)}
	}
	flags := hdr[4]
	payloadLen := int(binary.BigEndian.Uint32(hdr[8:12]))
	if payloadLen > maxFrame {
		return &WireError{What: fmt.Sprintf("frame of %d bytes exceeds limit %d", payloadLen, maxFrame)}
	}
	if cap(f.buf) < payloadLen {
		f.buf = make([]byte, 0, payloadLen)
	}
	f.buf = f.buf[:payloadLen]
	if _, err := io.ReadFull(r, f.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	f.Flags = flags
	if flags&(WireFlagErr|WireFlagHello) != 0 {
		f.Msg = f.buf
		return nil
	}
	// Data frame: split the payload into record windows.
	rest := f.buf
	for len(rest) > 0 {
		if len(rest) < 4 {
			return &WireError{What: "truncated record length"}
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if n > len(rest) {
			return &WireError{What: fmt.Sprintf("record of %d bytes overruns frame (%d left)", n, len(rest))}
		}
		f.Recs = append(f.Recs, rest[:n:n])
		rest = rest[n:]
	}
	return nil
}

// WireSender packs record images into frames of up to packetSize records
// on one writer — the producer half of a wire link. It buffers via
// bufio, so one frame is one or a few large writes, never a syscall per
// record. Not safe for concurrent use; each producer goroutine owns one.
type WireSender struct {
	w          *bufio.Writer
	packetSize int
	recs       [][]byte // windows into arena, like netPacket
	arena      []byte
	scratch    []byte
	meter      *ResourceMeter

	frames atomic.Int64
	bytes  atomic.Int64
}

// NewWireSender wraps w. packetSize <= 0 uses the exchange default (83).
func NewWireSender(w io.Writer, packetSize int) *WireSender {
	if packetSize <= 0 {
		packetSize = 83
	}
	return &WireSender{w: bufio.NewWriterSize(w, 64<<10), packetSize: packetSize}
}

// WithMeter attributes sent frames/bytes to a query's resource meter.
func (s *WireSender) WithMeter(m *ResourceMeter) *WireSender {
	s.meter = m
	return s
}

// Stats reports frames and payload bytes sent so far.
func (s *WireSender) Stats() (frames, bytes int64) {
	return s.frames.Load(), s.bytes.Load()
}

// Hello sends the connection-opening handshake frame immediately.
func (s *WireSender) Hello(payload []byte) error {
	s.scratch = AppendWireControl(s.scratch[:0], WireFlagHello, payload)
	if err := s.writeScratch(); err != nil {
		return err
	}
	return s.w.Flush()
}

// Add stages one record image; a full packet is framed and written.
// The image is copied into the sender's arena before Add returns, so
// the caller may release its pin immediately. Entries stay valid when a
// later append grows the arena: they keep referencing the earlier
// backing array, which still holds their bytes.
func (s *WireSender) Add(data []byte) error {
	off := len(s.arena)
	s.arena = append(s.arena, data...)
	s.recs = append(s.recs, s.arena[off:len(s.arena):len(s.arena)])
	if len(s.recs) >= s.packetSize {
		return s.flushData(0)
	}
	return nil
}

// CloseEOS flushes staged records and terminates the stream: a trailing
// EOS frame, carrying errMsg as an EOS|Err frame when non-empty.
func (s *WireSender) CloseEOS(errMsg string) error {
	if errMsg != "" {
		if len(s.recs) > 0 {
			if err := s.flushData(0); err != nil {
				return err
			}
		}
		s.scratch = AppendWireControl(s.scratch[:0], WireFlagEOS|WireFlagErr, []byte(errMsg))
		if err := s.writeScratch(); err != nil {
			return err
		}
		return s.w.Flush()
	}
	if err := s.flushData(WireFlagEOS); err != nil {
		return err
	}
	return s.w.Flush()
}

// flushData frames the staged records (possibly zero of them, for a bare
// EOS) and writes the frame.
func (s *WireSender) flushData(flags byte) error {
	s.scratch = AppendWireFrame(s.scratch[:0], s.recs, flags)
	for i := range s.recs {
		s.recs[i] = nil
	}
	s.recs = s.recs[:0]
	s.arena = s.arena[:0]
	if err := s.writeScratch(); err != nil {
		return err
	}
	// Data frames are pushed promptly so the consumer pipeline never
	// waits on a half-filled bufio buffer.
	return s.w.Flush()
}

func (s *WireSender) writeScratch() error {
	if _, err := s.w.Write(s.scratch); err != nil {
		return err
	}
	payload := len(s.scratch) - wireHeaderLen
	s.frames.Add(1)
	s.bytes.Add(int64(payload))
	s.meter.WireSend(payload)
	return nil
}
