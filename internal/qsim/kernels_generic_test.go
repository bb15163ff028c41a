//go:build !amd64

package qsim

import "testing"

// simKernels returns the kernels the CPU runs: the portable loops.
func simKernels(testing.TB) []simKernel { return []simKernel{kernelGo} }

// setKernel is a no-op: the portable loops are the only kernels.
func setKernel(simKernel) {}
