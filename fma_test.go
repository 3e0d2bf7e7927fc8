package swapp

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// arm64FusedPins is the ratchet on the fused multiply-add instructions an
// arm64 build of cmd/swappd carries in the module's own functions, keyed by
// the toolchain's go1.N. The Go spec lets a compiler fuse x*y + z unless an
// explicit conversion rounds the product; amd64 fuses none, so each fused
// site on arm64 may round differently from the amd64 results the goldens
// and digests pin. A count may only go down: lower the pin when sites are
// made explicit.
var arm64FusedPins = map[string]int{
	"go1.24": 62, // in 24 functions, go1.24.0
}

// fusedOps are the arm64 fused multiply-add opcodes, double and single.
var fusedOps = map[string]bool{
	"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true,
	"FMADDS": true, "FMSUBS": true, "FNMADDS": true, "FNMSUBS": true,
}

// TestArm64FusedMultiplyAdds cross-compiles cmd/swappd for arm64 with the
// local toolchain, disassembles it with go tool objdump, and counts the
// fused multiply-adds in functions of this module. It fails above the
// toolchain's pin, logs below it, and on a toolchain with no pin logs the
// count and skips. The proof is static: nothing here runs arm64 code.
func TestArm64FusedMultiplyAdds(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles and disassembles cmd/swappd; skipped with -short")
	}
	mod, err := modulePath("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "swappd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/swappd")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=arm64 go build ./cmd/swappd: %v\n%s", err, out)
	}
	dump, err := exec.Command("go", "tool", "objdump", bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}

	n, funcs := 0, map[string]int{}
	fn := ""
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(rest, " ")
			continue
		}
		if !strings.HasPrefix(fn, mod+"/") && !strings.HasPrefix(fn, mod+".") {
			continue
		}
		// An instruction line is tab-separated: position, address,
		// encoding, then the instruction, opcode first.
		fields := strings.FieldsFunc(line, func(r rune) bool { return r == '\t' })
		if len(fields) == 0 {
			continue
		}
		if op, _, _ := strings.Cut(strings.TrimSpace(fields[len(fields)-1]), " "); fusedOps[op] {
			n++
			funcs[fn]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	ver := runtime.Version() // go1.N.P: the pin is per go1.N
	if parts := strings.SplitN(ver, ".", 3); len(parts) >= 2 {
		ver = parts[0] + "." + parts[1]
	}
	pin, ok := arm64FusedPins[ver]
	switch {
	case !ok:
		t.Skipf("%d fused multiply-adds in %d functions on %s, which has no pin", n, len(funcs), runtime.Version())
	case n > pin:
		t.Errorf("%d fused multiply-adds in %d functions, pin for %s is %d: a new x*y + z site fuses on arm64; round the product with an explicit float64(x*y)\n%v",
			n, len(funcs), ver, pin, funcs)
	case n < pin:
		t.Logf("%d fused multiply-adds in %d functions, below the %s pin of %d: lower the pin", n, len(funcs), ver, pin)
	default:
		t.Logf("%d fused multiply-adds in %d functions (%s)", n, len(funcs), ver)
	}
}
