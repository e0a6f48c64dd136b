package main

import (
	"time"

	"abft/internal/ecc"
)

// crcRow is one backend's CRC32C throughput measurement (the paper's
// hardware-accelerated vs software comparison, sections IV and VII).
type crcRow struct {
	backend    ecc.Backend
	bufferSize int
	throughput float64 // MB/s
}

// crcThroughput measures both CRC32C backends over buffers shaped like
// the actual codewords: the 32-byte row-pointer group, a 60-byte TeaLeaf
// matrix row, the 64-byte vector block, and a large streaming buffer for
// peak rates.
func crcThroughput() []crcRow {
	sizes := []int{32, 60, 64, 4096, 1 << 20}
	var rows []crcRow
	for _, size := range sizes {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i * 131)
		}
		for _, b := range []ecc.Backend{ecc.Hardware, ecc.Software} {
			// Calibrate iterations for roughly 50 ms of work.
			iters := 1
			for {
				start := time.Now()
				var sink uint32
				for i := 0; i < iters; i++ {
					sink ^= ecc.Checksum(buf, b)
				}
				elapsed := time.Since(start)
				_ = sink
				if elapsed > 50*time.Millisecond || iters > 1<<26 {
					bytes := float64(size) * float64(iters)
					rows = append(rows, crcRow{
						backend:    b,
						bufferSize: size,
						throughput: bytes / elapsed.Seconds() / 1e6,
					})
					break
				}
				iters *= 2
			}
		}
	}
	return rows
}
