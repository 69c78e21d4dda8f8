package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Record framing. Every record is self-checking so recovery never has
// to trust anything beyond the bytes it can re-hash:
//
//	[0:4)  crc32 (IEEE) over bytes [4:9+size)
//	[4:8)  size — payload length in bytes (uint32, little endian)
//	[8]    kind — recEvent or recSnapshot
//	[9:)   payload
//
// A torn tail (power cut mid-write), a truncated file, or a flipped bit
// all fail the CRC (or the size bound) and recovery truncates to the
// last record that still verifies. The size bound (maxRecord) keeps a
// corrupted length field from turning one bad record into a gigabyte
// read.
const (
	recHeader = 9
	maxRecord = 1 << 20

	// recEvent is 3, not 1: kind 1 framed revision-1 events (codec.go),
	// so a pre-revision record is skipped, never decoded under the new
	// layout.
	recEvent    byte = 3
	recSnapshot byte = 2
)

// appendRecord frames payload into dst and returns the extended slice.
func appendRecord(dst []byte, kind byte, payload []byte) []byte {
	n := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[n+4:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(dst[n+4 : len(dst)])
	binary.LittleEndian.PutUint32(dst[n:], crc)
	return dst
}

// parseRecord reads the record at the start of buf. ok is false when
// the bytes do not contain one complete, CRC-valid record — the torn /
// corrupt / truncated case recovery truncates at.
func parseRecord(buf []byte) (kind byte, payload []byte, n int, ok bool) {
	if len(buf) < recHeader {
		return 0, nil, 0, false
	}
	size := binary.LittleEndian.Uint32(buf[4:8])
	if size > maxRecord || int64(recHeader)+int64(size) > int64(len(buf)) {
		return 0, nil, 0, false
	}
	n = recHeader + int(size)
	if crc32.ChecksumIEEE(buf[4:n]) != binary.LittleEndian.Uint32(buf[0:4]) {
		return 0, nil, 0, false
	}
	return buf[8], buf[recHeader:n:n], n, true
}
