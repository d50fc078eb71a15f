package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
)

// target sends requests to the server under test: over the loopback
// listener (what users see), or straight into Handler().ServeHTTP (the
// serve layer alone). The ops are written once against a target, so
// both paths send byte-identical requests. prefix names the spans.
type target struct {
	prefix string
	client *http.Client // loopback; nil for in-process
	base   string
	h      http.Handler
}

// reply is one response, fully read.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (t *target) do(method, path string, body []byte, header ...string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	var resp *http.Response
	if t.client != nil {
		resp, err = t.client.Do(req)
		if err != nil {
			return reply{}, err
		}
	} else {
		rec := httptest.NewRecorder()
		t.h.ServeHTTP(rec, req)
		resp = rec.Result()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// expect sends a request and fails unless the status is want.
func (t *target) expect(want int, method, path string, body []byte, header ...string) (reply, error) {
	r, err := t.do(method, path, body, header...)
	if err != nil {
		return r, err
	}
	if r.status != want {
		return r, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, r.status, want, bytes.TrimSpace(r.body))
	}
	return r, nil
}

// follow reads a job's SSE stream to its done frame and returns the
// terminal status the frame carries.
func (t *target) follow(path string) (string, error) {
	r, err := t.expect(http.StatusOK, http.MethodGet, path, nil, "Accept", "text/event-stream")
	if err != nil {
		return "", err
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var doc struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
				return "", fmt.Errorf("%s: bad done frame: %w", path, err)
			}
			if doc.Error != "" {
				return doc.Status, fmt.Errorf("%s: job %s: %s", path, doc.Status, doc.Error)
			}
			return doc.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: stream ended without a done frame", path)
}

// jobDoc is the part of a job or session document the ops use: the
// resource ID and, for jobs, the content-hash experiment ID under
// which the result is archived.
type jobDoc struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
}

func parseJobDoc(body []byte) (jobDoc, error) {
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
		return doc, fmt.Errorf("no id in %q", body)
	}
	return doc, nil
}
