// Package link is the first layer of the paper's four-layer data transfer
// stack: the basic communication utilities that carry migration information
// from the source machine to the destination machine.
//
// Two transports are provided:
//
//   - Pipe: an in-memory connected pair, for tests and single-process
//     experiments;
//   - TCP: real sockets with length-and-checksum framing, used by the
//     node daemon (the paper sent state over TCP between workstations).
//
// The paper's other transfer mode, a shared file system, is not a
// transport here: it is a checkpoint store directory (internal/store) two
// nodes can both reach, written by migstate -checkpoint and read by
// migstate -restore.
//
// In addition, Model describes a calibrated network link (bandwidth +
// latency). The paper's Table 1 transmission column is dominated by wire
// time on a 100 Mb/s Ethernet; Model reproduces that column for hardware we
// do not have, while the TCP transport demonstrates the real protocol.
package link

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Transport carries framed messages between two endpoints.
type Transport interface {
	// Send transmits one message. It does not retain payload: once Send
	// returns the caller may reuse the slice.
	Send(payload []byte) error
	// Recv blocks for the next message. The result is owned by the
	// caller: an implementation returns memory it allocated for this one
	// message and keeps no reference to, so callers may hold, slice or
	// modify it without copying, and once done hand it back (Recycle).
	// Wrappers pass the slice through.
	Recv() ([]byte, error)
	// Close releases the endpoint; a blocked Recv on the peer fails.
	Close() error
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("link: transport closed")

// ErrChecksum is returned by ReadFrame when a frame's payload does not
// match its CRC. The frame was fully consumed, so the byte stream remains
// aligned on the next frame boundary. This CRC is the one hop-by-hop check
// a transfer's bytes get; content is checked end to end above it (the
// snapshot's section CRCs, the round exchange's body hashes).
var ErrChecksum = errors.New("link: frame checksum mismatch")

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 30

// Pipe returns two connected in-memory endpoints. Messages sent on one are
// received on the other, in order.
func Pipe() (Transport, Transport) {
	ab := make(chan []byte, 16)
	ba := make(chan []byte, 16)
	done, once := make(chan struct{}), new(sync.Once)
	a := &pipeEnd{send: ab, recv: ba, done: done, once: once}
	b := &pipeEnd{send: ba, recv: ab, done: done, once: once}
	return a, b
}

type pipeEnd struct {
	send chan []byte
	recv chan []byte
	done chan struct{}
	// once guards closing done, which both ends share: either end may close
	// the pipe, from any goroutine, any number of times.
	once *sync.Once
}

func (p *pipeEnd) Send(payload []byte) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	msg := make([]byte, len(payload))
	copy(msg, payload)
	select {
	case p.send <- msg:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (p *pipeEnd) Recv() ([]byte, error) {
	select {
	case msg := <-p.recv:
		return msg, nil
	case <-p.done:
		// Drain anything already queued before reporting closure.
		select {
		case msg := <-p.recv:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (p *pipeEnd) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// frame layout: 4-byte big-endian length, 4-byte CRC-32 (IEEE) of the
// payload, then the payload bytes.

// WriteFrame writes one framed message to w. Header and payload go out
// as one vectored write where w supports it (a TCP connection does), so a
// frame costs one system call and the payload is never copied behind a
// header.
func WriteFrame(w io.Writer, payload []byte) error {
	hdr := make([]byte, 8)
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	obs.CRC32Bytes.Add(int64(len(payload)))
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one framed message from r, verifying its checksum.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	if n > maxFrame {
		return nil, fmt.Errorf("link: frame length %d exceeds limit", n)
	}
	sum := binary.BigEndian.Uint32(hdr[4:])
	var payload []byte
	if n >= minRecycled {
		if b, ok := frames.Get().(*[]byte); ok && cap(*b) >= int(n) {
			payload = (*b)[:n]
		}
	}
	if payload == nil {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	obs.CRC32Bytes.Add(int64(n))
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrChecksum
	}
	return payload, nil
}

// minRecycled is the smallest frame worth recycling: a chunk of a state
// transfer, not a control message.
const minRecycled = 32 << 10

// frames holds recycled frames for ReadFrame to fill again; it needs no
// zeroing, since a frame is returned only once every byte has been read in.
var frames sync.Pool

// Recycle hands back a frame a Recv returned, for a later ReadFrame to
// reuse, sparing it the allocation, the zeroing and the first-touch faults
// of fresh memory. The caller must hold no slice of it any longer.
func Recycle(frame []byte) {
	if cap(frame) >= minRecycled {
		frames.Put(&frame)
	}
}

// Conn wraps a net.Conn (or any ReadWriteCloser) as a Transport.
type Conn struct {
	rwc io.ReadWriteCloser
}

// NewConn wraps an established connection.
func NewConn(rwc io.ReadWriteCloser) *Conn { return &Conn{rwc: rwc} }

// Dial connects to a listening peer at addr (host:port).
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Send implements Transport.
func (c *Conn) Send(payload []byte) error { return WriteFrame(c.rwc, payload) }

// Recv implements Transport.
func (c *Conn) Recv() ([]byte, error) { return ReadFrame(c.rwc) }

// Close implements Transport.
func (c *Conn) Close() error { return c.rwc.Close() }

// SetDeadline bounds every subsequent Send and Recv when the underlying
// connection supports deadlines (net.Conn does); on other connections it
// is a no-op. A zero time clears the deadline. The migration daemon uses
// this for per-session timeouts: a peer that stalls mid-handshake or
// mid-transfer fails its session instead of pinning a worker forever.
func (c *Conn) SetDeadline(t time.Time) error {
	if d, ok := c.rwc.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// Listener accepts inbound framed-transport connections — the accept side
// of Dial, used by the persistent migration daemon.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener at addr (host:port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address (useful with a ":0" port).
func (l *Listener) Addr() net.Addr { return l.l.Addr() }

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Close stops accepting; a blocked Accept returns an error.
func (l *Listener) Close() error { return l.l.Close() }

// LoopbackPair builds a connected TCP transport pair over the loopback
// interface, for benchmarks and tests that want real sockets.
func LoopbackPair() (srv, cli Transport, cleanup func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	accepted := make(chan net.Conn, 1)
	errc := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		return nil, nil, nil, err
	}
	select {
	case sc := <-accepted:
		s, c := NewConn(sc), NewConn(cc)
		return s, c, func() { s.Close(); c.Close(); l.Close() }, nil
	case err := <-errc:
		cc.Close()
		l.Close()
		return nil, nil, nil, err
	}
}

// Model is a calibrated point-to-point link used to reproduce the paper's
// transmission times analytically.
type Model struct {
	Name string
	// BitsPerSecond is the raw link bandwidth.
	BitsPerSecond float64
	// Latency is the per-message fixed cost (propagation plus protocol
	// setup).
	Latency time.Duration
	// Efficiency is the achievable fraction of raw bandwidth (protocol
	// overheads); 1.0 means line rate.
	Efficiency float64
}

// Links used in the paper's evaluation.
var (
	// Ethernet10 is the 10 Mbit/s Ethernet connecting the DEC 5000 and
	// the SPARC 20 in the heterogeneity experiment.
	Ethernet10 = Model{Name: "10Mb/s Ethernet", BitsPerSecond: 10e6, Latency: 2 * time.Millisecond, Efficiency: 0.75}
	// Ethernet100 is the 100 Mbit/s Ethernet connecting the two Ultra 5
	// workstations in Table 1 and Figure 2.
	Ethernet100 = Model{Name: "100Mb/s Ethernet", BitsPerSecond: 100e6, Latency: 1 * time.Millisecond, Efficiency: 0.8}
)

// TxTime returns the modelled transmission time for n bytes.
func (m Model) TxTime(n int) time.Duration {
	if m.BitsPerSecond <= 0 {
		return m.Latency
	}
	eff := m.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	secs := float64(n*8) / (m.BitsPerSecond * eff)
	return m.Latency + time.Duration(secs*float64(time.Second))
}
