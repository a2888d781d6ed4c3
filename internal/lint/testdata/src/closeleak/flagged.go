// Package closeleak holds fixtures for the resource-lifecycle analyzer:
// a file-backed handle opened in a function must reach Close on every
// exit path, or ownership must visibly move elsewhere.
package closeleak

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

var errEmpty = errors.New("empty row")

// writeAll closes on the happy path but leaks f when a row is empty.
func writeAll(path string, rows []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r == "" {
			return errEmpty // want `handle f \(opened at line \d+\) is not closed on this path; defer f\.Close\(\) after the error check`
		}
		fmt.Fprintln(f, r)
	}
	return f.Close()
}

// spillRun creates a shard file and forgets it entirely: the fd leaks and
// the buffered rows may never reach the disk.
func spillRun(dir string, rows [][]int32) error {
	f, err := os.Create(filepath.Join(dir, "shard-000"))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprint(f, r)
	}
	return nil // want `handle f \(opened at line \d+\) is not closed on this path; defer f\.Close\(\) after the error check`
}

// closeleak treats a comparison, a method value and a reassignment as
// ordinary use of the handle, not a hand-off (spanend counts all three
// as hand-offs; see its clean fixtures), so each of these still leaks.

// Comparing the handle keeps it owned: the early return leaks it.
func comparedHandle(path string, skip bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if f == nil || skip {
		return nil // want `handle f \(opened at line \d+\) is not closed on this path; defer f\.Close\(\) after the error check`
	}
	return f.Close()
}

// A Close made through a method value is not a Close on f.
func methodValueHandle(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	closeFn := f.Close
	return closeFn() // want `handle f \(opened at line \d+\) is not closed on this path; defer f\.Close\(\) after the error check`
}

// Reassigning the variable keeps the first handle owned: the early return
// leaks it.
func reopened(a, b string) error {
	f, err := os.Open(a)
	if err != nil {
		return err
	}
	if a == b {
		return nil // want `handle f \(opened at line \d+\) is not closed on this path; defer f\.Close\(\) after the error check`
	}
	f.Close()
	f, err = os.Open(b)
	if err != nil {
		return err
	}
	return f.Close()
}
