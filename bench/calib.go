package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent over minutes (README.md, "Noise policy"), which no statistic taken
// inside one run can remove. The calibrator is the benchmark's answer: a
// fixed unit of reference work, owned by the benchmark and using nothing of
// the program under test, is timed between migrations, and every end-to-end
// time is reported scaled to a host on which that unit takes calibNominalMs.

// calibNominalMs defines the reference host: one unit of reference work
// takes this long on it. The builder's host, when quiet, reads 0.83-1.0 ms.
const calibNominalMs = 1.0

const (
	calibScan  = 128 << 10 // bytes hashed one at a time: ALU and branches
	calibBuf   = 1 << 20   // bytes checksummed and copied: memory bandwidth
	calibChase = 1 << 20   // 4 MB permutation chased: cache and memory latency
	calibSteps = 4096
	calibBlock = 64 << 10 // bytes pushed over loopback TCP: socket wake-ups
)

// calibrator runs the reference work: hash a block byte by byte, checksum
// and copy a buffer, chase pointers through a permutation larger than the
// private caches, and push a block over loopback TCP to a second goroutine
// that checksums it and answers. Together these lean on the host resources a
// migration leans on — both cores, memory bandwidth and latency, socket
// wake-ups. On the builder's host the four parts take about 0.2, 0.2, 0.45
// and 0.08 ms; their sum tracked the drift of all four workloads better than
// any part or re-weighting tried (README.md).
type calibrator struct {
	buf, dst []byte
	next     []uint32
	conn     net.Conn
	done     chan struct{}
	sink     uint32
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	c := &calibrator{buf: make([]byte, calibBuf), dst: make([]byte, calibBuf),
		next: make([]uint32, calibChase), done: make(chan struct{})}
	// A fixed full-cycle walk: i -> (i*a + b) mod 2^20 with a = 1 mod 4, b odd.
	for i := range c.next {
		c.next[i] = uint32((i*668265261 + 12345) % calibChase)
	}
	for i := range c.buf {
		c.buf[i] = byte(i * 131)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	peer, ok := <-accepted
	if !ok {
		c.conn.Close()
		return nil, io.ErrUnexpectedEOF
	}
	go func() {
		defer close(c.done)
		defer peer.Close()
		block := make([]byte, calibBlock)
		var reply [4]byte
		for {
			if _, err := io.ReadFull(peer, block); err != nil {
				return
			}
			binary.BigEndian.PutUint32(reply[:], crc32.ChecksumIEEE(block))
			if _, err := peer.Write(reply[:]); err != nil {
				return
			}
		}
	}()
	return c, nil
}

// once runs one unit of reference work and returns its time in milliseconds.
func (c *calibrator) once() (float64, error) {
	start := time.Now()
	h := uint32(2166136261)
	for _, b := range c.buf[:calibScan] {
		h = (h ^ uint32(b)) * 16777619
	}
	c.sink += h + crc32.ChecksumIEEE(c.buf)
	copy(c.dst, c.buf)
	j := c.sink % calibChase
	for i := 0; i < calibSteps; i++ {
		j = c.next[j]
	}
	c.sink += j
	if _, err := c.conn.Write(c.dst[:calibBlock]); err != nil {
		return 0, err
	}
	var reply [4]byte
	if _, err := io.ReadFull(c.conn, reply[:]); err != nil {
		return 0, err
	}
	c.sink += binary.BigEndian.Uint32(reply[:])
	return ms(time.Since(start)), nil
}

// sample appends n units of reference work to v.
func (c *calibrator) sample(v []float64, n int) ([]float64, error) {
	for i := 0; i < n; i++ {
		d, err := c.once()
		if err != nil {
			return v, fmt.Errorf("calibration: %w", err)
		}
		v = append(v, d)
	}
	return v, nil
}

// speedFactor is what a time measured while the reference work read samples
// is multiplied by to get the time on the reference host.
func speedFactor(samples []float64) float64 {
	if m := median(samples); m > 0 {
		return calibNominalMs / m
	}
	return 1
}

func (c *calibrator) close() {
	c.conn.Close()
	<-c.done
}
