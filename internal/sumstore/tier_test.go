package sumstore

import (
	"testing"
	"time"
)

// TestTierDecodeOutsideLock holds one lookup's decode open and checks a
// lookup of another key on the same tier still returns, from memory and
// from disk: decoding must not serialize behind the tier's lock.
func TestTierDecodeOutsideLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
	}{{"memory", ""}, {"disk", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			tier, err := NewTier(8, 8, tc.dir, ".blob")
			if err != nil {
				t.Fatal(err)
			}
			tier.Put("A", []byte("a"))
			tier.Put("B", []byte("b"))
			if tc.dir != "" { // a fresh tier reads both keys from disk
				if tier, err = NewTier(8, 8, tc.dir, ".blob"); err != nil {
					t.Fatal(err)
				}
			}

			started, release := make(chan struct{}), make(chan struct{})
			aDone := make(chan bool)
			go func() {
				aDone <- tier.Get("A", func([]byte) error {
					close(started)
					<-release
					return nil
				})
			}()
			<-started
			bDone := make(chan bool, 1)
			go func() { bDone <- tier.Get("B", func([]byte) error { return nil }) }()
			select {
			case ok := <-bDone:
				if !ok {
					t.Error("lookup of B missed")
				}
			case <-time.After(5 * time.Second):
				t.Error("lookup of B blocked behind the decode of A")
			}
			close(release)
			if !<-aDone {
				t.Error("lookup of A missed")
			}
		})
	}
}
