package main

import (
	"io"
	"net/http"
	"sync"
)

// timedTransport records one kHTTPClient span per exchange, from the
// request leaving the client to its response body being closed, carrying
// the request and response body bytes.
type timedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.rec.now()
	op := t.rec.op.Load()
	sent := max(int(req.ContentLength), 0)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.add(span{kind: kHTTPClient, start: start, end: t.rec.now(), owner: op, items: sent})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: t.rec, start: start, op: op, n: sent}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	rec   *recorder
	start int64
	op    int64
	n     int
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.rec.add(span{kind: kHTTPClient, start: b.start, end: b.rec.now(), owner: b.op, items: b.n})
	})
	return err
}

// timedHandler records one kHTTPServer span per request the server
// handles.
func timedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := rec.now()
		h.ServeHTTP(w, r)
		rec.add(span{kind: kHTTPServer, start: start, end: rec.now(), owner: rec.op.Load()})
	})
}
