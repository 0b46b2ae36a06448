// Package fsatomic is the single implementation of the repository's
// crash-safe persistence discipline: write to a temporary file in the
// destination directory, sync it to stable storage, rename it over the
// target, then sync the directory so the rename itself is durable. A crash
// at any point leaves either the old file or the new file, never a torn
// mixture — the property the checkpoint/resume and serve-restart
// guarantees are built on.
//
// Every durable artifact of the system (search checkpoints, profile spaces
// and databases, saved mappings, machine specs, store request/result
// documents) must go through WriteFile. Direct os.WriteFile/os.Create calls
// on persistence paths are forbidden and mechanically rejected by the
// atomicwrite analyzer in tools/mapvet. Append-only event streams are the
// one exception: they are recovered by truncation to their last complete
// line, not by rename (see telemetry.ResumeJSONL).
package fsatomic

import (
	"os"
	"path/filepath"
)

// WriteFile atomically replaces the file at path with data: the bytes are
// written to a temporary file in path's directory, fsynced, and renamed
// over path, and then the directory is fsynced — without that, a machine
// crash can lose the rename and bring back the old file (or no file) even
// after WriteFile returned. The written file has mode 0o644.
//
// On an error before the rename the temporary file is removed and the
// previous contents of path are left intact. An error from the directory
// sync means path already holds data but may not survive a machine crash.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// Durable artifacts are world-readable like os.WriteFile's
		// conventional 0o644; CreateTemp's 0o600 would make results
		// unreadable to sibling tooling.
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory dir, making the entries renamed into it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
