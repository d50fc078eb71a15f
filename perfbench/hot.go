package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// hotRead is one cached read and the reply it must get.
type hotRead struct {
	path   string
	header []string
	status int
	body   []byte // nil for 304
}

type serveHot struct {
	seed  int64
	reads []hotRead
	batch []int    // indices into reads: every op's fixed sequence
	blobs []string // archive IDs persisted in the FS store
}

const (
	hotTraces  = 4
	hotSweeps  = 1
	hotRepeats = 64 // each op reads every distinct request this many times
)

var hotEncodings = []string{"application/json", "text/csv", "text/markdown"}

// fill computes a fixed set of trace and sweep results, captures every
// encoding with its ETag, and waits until the store holds all of them.
// Each op then reads: the three encodings of each result, an
// If-None-Match revalidation (304) and an archive replay.
func (w *serveHot) fill(e *env) error {
	w.reads, w.blobs = nil, nil
	for k := 0; k < hotTraces+hotSweeps; k++ {
		kind, body := "traces", mustJSON(genTrace(w.seed, "fill", k))
		if k >= hotTraces {
			kind, body = "sweeps", mustJSON(genGrid(w.seed, "fill", k))
		}
		doc, _, err := jobOp(e.loop, nil, -1, -1, kind, body, "application/json")
		if err != nil {
			return err
		}
		path := "/v1/" + kind + "/" + doc.ID
		var jsonBody []byte
		var etag string
		for _, ct := range hotEncodings {
			r, err := e.loop.expect(http.StatusOK, http.MethodGet, path, nil, "Accept", ct)
			if err != nil {
				return err
			}
			if ct == "application/json" {
				jsonBody, etag = r.body, r.header.Get("ETag")
			}
			w.reads = append(w.reads, hotRead{path: path, header: []string{"Accept", ct}, status: http.StatusOK, body: r.body})
		}
		if etag == "" {
			return fmt.Errorf("%s: no ETag", path)
		}
		w.reads = append(w.reads,
			hotRead{path: path, header: []string{"Accept", "application/json", "If-None-Match", etag}, status: http.StatusNotModified},
			hotRead{path: "/v1/archive/" + doc.Experiment, header: []string{"Accept", "application/json"}, status: http.StatusOK, body: jsonBody})
		w.blobs = append(w.blobs, doc.Experiment)
	}
	r := opRand(w.seed, "batch", 0)
	w.batch = w.batch[:0]
	for rep := 0; rep < hotRepeats; rep++ {
		w.batch = append(w.batch, r.Perm(len(w.reads))...)
	}
	// Results persist write-behind; wait for every blob.
	deadline := time.Now().Add(30 * time.Second)
	for e.fs.Stats().Entries < len(w.blobs) {
		if time.Now().After(deadline) {
			return fmt.Errorf("store holds %d of %d results", e.fs.Stats().Entries, len(w.blobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// op reads the fixed batch; each reply must carry the status and the
// bytes captured at fill time, and a 304 an empty body.
func (w *serveHot) op(e *env, t *target, tr *tracer, i, parent int) error {
	for _, k := range w.batch {
		rd := &w.reads[k]
		var got reply
		err := tr.timed(t.prefix+".result", i, parent, func() error {
			var err error
			got, err = t.expect(rd.status, http.MethodGet, rd.path, nil, rd.header...)
			return err
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(got.body, rd.body) {
			return fmt.Errorf("GET %s %v: body differs from the bytes captured at setup", rd.path, rd.header)
		}
	}
	return nil
}

// check has nothing left to do: op compares every read with the bytes
// captured at fill time.
func (w *serveHot) check() (int, []int) { return 0, nil }

func (w *serveHot) layers(e *env, tr *tracer, i, parent int) error {
	root := tr.begin("op.serve", i, parent)
	err := w.op(e, e.inproc, tr, i, root)
	tr.end(root)
	if err != nil {
		return err
	}
	for _, id := range w.blobs {
		err := tr.timed("store.get", i, parent, func() error {
			if _, ok := e.fs.Get(id); !ok {
				return fmt.Errorf("store: no blob %s", id)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
