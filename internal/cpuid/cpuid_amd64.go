package cpuid

// AVX reports whether the CPU runs AVX and the OS saves YMM state.
func AVX() bool

// AVX512 reports whether the CPU runs AVX and AVX-512F and the OS saves
// YMM, opmask and ZMM state.
func AVX512() bool
