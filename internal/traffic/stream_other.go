//go:build !amd64

package traffic

// Without the amd64 kernels (stream_amd64.go) both do no words, and the
// scalar loops of refill and Next do all of them.

func addVec(dst, src *uint64, n int) int { return 0 }

func missRun(h *uint64, n int, t uint64) int { return 0 }
