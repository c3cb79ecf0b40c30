package tcpstack

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/simnet"
)

// Addr is a transport address.
type Addr struct {
	Host string
	Port int
}

func (a Addr) String() string { return a.Host + ":" + strconv.Itoa(a.Port) }

// Flags is the TCP flag set carried by a segment.
type Flags uint8

// Segment flags.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Has reports whether all flags in f are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

func (f Flags) String() string {
	s := ""
	if f.Has(FlagSYN) {
		s += "S"
	}
	if f.Has(FlagACK) {
		s += "A"
	}
	if f.Has(FlagFIN) {
		s += "F"
	}
	if f.Has(FlagRST) {
		s += "R"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// segHeaderBytes is the wire overhead per segment (IP + TCP headers).
const segHeaderBytes = 40

// Segment is one TCP segment. Sequence numbers use an unwrapped 64-bit
// space: a modelling simplification over the wrapping 32-bit wire format
// that changes nothing about the protocol logic and keeps multi-gigabyte
// transfers (the 10 GB download of §4.4) trivially correct.
//
// Segments are pooled records (DESIGN.md §20): the sending stack takes one
// from its free list, and whoever consumes it last — the receiving stack
// once input processing returns, the sending stack when the NIC or the link
// refuses the frame — releases it back to that list. Data points into
// storage the record owns, so a segment's payload is never rewritten while
// the segment is readable; an ingress hook or gate that keeps bytes, or the
// segment, past its own return copies them. A segment that is lost (held by
// the gate of a kernel that died, in flight to a NIC that went down) is
// never released and falls to the garbage collector.
type Segment struct {
	Src, Dst Addr
	Seq, Ack uint64
	Flags    Flags
	Window   int
	// Probe marks a zero-window probe: a data-less segment the receiver
	// must acknowledge so the sender learns when the window reopens.
	Probe bool
	Data  []byte

	owner    *Stack // whose free list the record returns to
	buf      []byte // payload storage behind Data, kept across reuse
	released bool
}

// poisonReleased makes release scribble the record and its payload storage,
// so a use after release fails a byte-identity assertion instead of passing
// because the record had not been reused yet. It is on in every test binary
// and off everywhere else.
var poisonReleased = testing.Testing()

// newSegment takes a blank segment record from the stack's free list.
func (s *Stack) newSegment() *Segment {
	if n := len(s.segFree); n > 0 {
		seg := s.segFree[n-1]
		s.segFree[n-1] = nil
		s.segFree = s.segFree[:n-1]
		*seg = Segment{owner: s, buf: seg.buf}
		return seg
	}
	return &Segment{owner: s}
}

// setData copies the payload into the record's own storage.
func (seg *Segment) setData(p []byte) {
	if len(p) == 0 {
		return
	}
	if cap(seg.buf) < len(p) {
		seg.buf = make([]byte, 0, max(len(p), seg.owner.params.MSS))
	}
	seg.Data = append(seg.buf[:0], p...)
}

// release returns the record to its owner's free list. Nothing may read
// the segment afterwards.
func (seg *Segment) release() {
	if seg.released {
		panic("tcpstack: segment released twice: " + seg.String())
	}
	seg.released = true
	if poisonReleased {
		gone := Addr{Host: "released", Port: -1}
		seg.Src, seg.Dst, seg.Flags, seg.Probe = gone, gone, FlagRST, true
		seg.Seq, seg.Ack, seg.Window = 1<<63-1, 1<<63-1, -1
		if buf := seg.buf[:cap(seg.buf)]; len(buf) > 0 {
			buf[0] = 0xdb
			for n := 1; n < len(buf); n *= 2 {
				copy(buf[n:], buf[:n]) // memmove-speed fill, also under -race
			}
		}
	}
	seg.owner.segFree = append(seg.owner.segFree, seg)
}

// Send puts the segment on the wire: the last thing an EgressGate does with
// it. A frame the NIC or the link refuses is dropped here.
func (seg *Segment) Send() {
	s := seg.owner
	if s.nic == nil || !s.nic.Send(simnet.Packet{DstHost: seg.Dst.Host, Size: seg.WireSize(), Payload: seg}) {
		seg.release()
	}
}

// WireSize reports the segment's size on the wire.
func (s *Segment) WireSize() int { return segHeaderBytes + len(s.Data) }

func (s *Segment) String() string {
	return fmt.Sprintf("%v>%v %s seq=%d ack=%d len=%d win=%d",
		s.Src, s.Dst, s.Flags, s.Seq, s.Ack, len(s.Data), s.Window)
}

// connKey identifies a connection within a stack (the local host is the
// stack itself).
type connKey struct {
	localPort  int
	remoteHost string
	remotePort int
}

func (k connKey) String() string {
	return fmt.Sprintf(":%d<->%s:%d", k.localPort, k.remoteHost, k.remotePort)
}
