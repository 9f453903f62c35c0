package p4

// readBits returns the big-endian value held in b, less the trail bits
// after it in b's last byte. b spans at most nine bytes, so a 64-bit
// field at any bit offset fits.
func readBits(b []byte, trail uint) uint64 {
	var hi, v uint64
	for _, c := range b {
		hi, v = v>>56, v<<8|uint64(c)
	}
	return v>>trail | hi<<(64-trail)
}

// writeBits ORs v into b, ending trail bits before b's end: the inverse
// of readBits on zeroed bytes.
func writeBits(b []byte, v uint64, trail uint) {
	lo, hi := v<<trail, v>>(64-trail)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] |= byte(lo)
		lo, hi = lo>>8|hi<<56, hi>>8
	}
}

// maskBits returns a mask of the low n bits.
func maskBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
