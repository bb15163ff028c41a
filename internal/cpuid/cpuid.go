// Package cpuid reports the x86 vector extensions the CPU runs and the OS
// saves state for, so the packages with assembly kernels (qsim's mixer,
// dct's dense passes) pick theirs from one probe. Off amd64 it is empty:
// those packages run their Go loops there and never call it.
package cpuid
