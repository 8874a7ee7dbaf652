package traffic

// addVec adds src[j] into dst[j] in blocks of 8 and then 2 words, and
// returns how many words it did. Blocks go in ascending order and each
// reads its src words before it writes dst, so dst may lie 8 or more
// words past src: a block then reads what earlier blocks wrote, as the
// scalar loop would.
//
//go:noescape
func addVec(dst, src *uint64, n int) int

// missRun returns the length of h's leading 8-word blocks, below n, in
// which every word misses threshold t (t <= resampleFrom): k = x&mask63
// misses when t <= k < resampleFrom, that is, when the top bit of
// (k−t) | (k+512) is clear.
//
//go:noescape
func missRun(h *uint64, n int, t uint64) int
