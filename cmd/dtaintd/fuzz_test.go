package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzUploadRequest feeds an arbitrary Content-Type (boundary included)
// and body to the scan or diff accept path, the per-request input a
// client fully controls. No input may panic, and every answer must be
// one the API documents for an upload: accepted, bad request, too
// large, or queue full. The runner is never started, so accepted jobs
// only sit in the queue.
func FuzzUploadRequest(f *testing.F) {
	fw := []byte("firmware image bytes")
	scanBody, scanCT := formBody(f, formFile{"firmware", fw})
	vocabBody, vocabCT := formBody(f, formFile{"firmware", fw}, formFile{"vocab", []byte(sourceOnlyVocab)})
	diffBody, diffCT := formBody(f, formFile{"old", fw}, formFile{"new", fw})
	f.Add("application/octet-stream", fw, false)
	f.Add(scanCT, scanBody, false)
	f.Add(vocabCT, vocabBody, false)
	f.Add(diffCT, diffBody, true)
	f.Add(diffCT, vocabBody, true)
	f.Fuzz(func(t *testing.T, contentType string, body []byte, isDiff bool) {
		s := newServer(config{maxUpload: 1 << 12})
		handle, path := s.handleScan, "/v1/scan"
		if isDiff {
			handle, path = s.handleDiff, "/v1/diff"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		handle(rec, req)
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("%s with Content-Type %q answered %d: %s", path, contentType, rec.Code, rec.Body)
		}
	})
}
