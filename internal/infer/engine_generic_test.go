//go:build !amd64

package infer

import "testing"

// forEachPath runs f on every kernel path this host can run: off amd64 that
// is the portable Go path only.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}
