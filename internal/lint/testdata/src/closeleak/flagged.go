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
