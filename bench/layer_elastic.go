package main

import (
	"bytes"
	"time"

	"repro/lpsgd"
)

// Adapter for the elastic layer, reached through the trainer's
// SaveState/LoadState pair: the stall a snapshot costs.

// saveLoadState round-trips the trainer's elastic state and reports the
// two wall times and the snapshot size.
func saveLoadState(t *lpsgd.Trainer) (save, load time.Duration, size int, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err = t.SaveState(&buf); err != nil {
		return 0, 0, 0, err
	}
	save = time.Since(t0)
	size = buf.Len()
	t0 = time.Now()
	err = t.LoadState(&buf)
	return save, time.Since(t0), size, err
}
