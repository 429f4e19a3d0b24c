// Package leakcheck fails a test binary whose tests leave this module's own
// goroutines running. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main gives stragglers a short grace to exit (closed
// servers, drained connections), then fails the binary if any goroutine whose
// stack runs code of this module is still alive, and prints those stacks.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// module is the prefix of every function name this module defines.
const module = "aspectpar/"

// grace is how long the goroutines a test shut down may take to exit.
const grace = 2 * time.Second

// Main runs the tests and then the leak check; it does not return.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := settle(grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) of %s outlived the tests:\n\n%s\n",
				len(leaked), module, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until no goroutine of this module is left or the grace is
// spent, and returns the stacks still alive then.
func settle(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		leaked := leftover()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leftover returns the stacks of the goroutines, other than the caller's,
// that run code of this module.
func leftover() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the caller's own stack comes first
		if strings.Contains(g, module) {
			out = append(out, g)
		}
	}
	return out
}
