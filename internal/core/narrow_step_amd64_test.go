package core

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHaveAVX2MatchesCPUInfo checks the CPUID/XGETBV detector against the
// kernel's view: on Linux, haveAVX2 must hold exactly when /proc/cpuinfo
// lists the avx2 flag.
func TestHaveAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = strings.Contains(flags+" ", " avx2 ")
			break
		}
	}
	if got := haveAVX2(); got != listed {
		t.Fatalf("haveAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, listed)
	}
	if got, want := NarrowEngine(), map[bool]string{true: "avx2", false: "portable"}[listed]; got != want {
		t.Fatalf("NarrowEngine() = %q, want %q", got, want)
	}
}
