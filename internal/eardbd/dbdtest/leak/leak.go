// Package leak checks that a test leaves no goroutines behind. It
// imports only the standard library, so the server and federation
// packages can use it from their internal tests without the import
// cycle the dbdtest harness would close.
//
// The check counts every goroutine in the process, so it is only
// valid in packages whose tests do not run in parallel.
package leak

import (
	"runtime"
	"testing"
	"time"
)

// Check records the current goroutine count and registers a cleanup
// that polls until the count is back at that baseline. If it is not
// within a few seconds, the test fails with every goroutine's stack.
// Call it before starting the services under test, so its cleanup runs
// after theirs.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		n := runtime.NumGoroutine()
		for polls := 0; n > base; polls++ {
			if polls == 500 {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("%d goroutines leaked (%d at start, %d now):\n%s", n-base, base, n, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
	})
}
