package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"

	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/serve"
)

// client is how the generator reaches the system: direct Go calls, or
// the in-process HTTP handlers.
type client interface {
	// prepare encodes one submission outside the clock and returns the
	// call that makes it durable.
	prepare(ds []kv.Delta) func() error
	// get reads one key: the first pair's value of its group.
	get(key string) (value string, found bool, epoch int64, err error)
	mget(keys []string) (found []bool, epoch int64, err error)
}

func firstValue(ps []kv.Pair) string {
	if len(ps) == 0 {
		return ""
	}
	return ps[0].Value
}

type directClient struct {
	ing *ingest.Ingester
	srv *serve.Server
}

func (c directClient) prepare(ds []kv.Delta) func() error {
	return func() error {
		_, _, err := c.ing.AddBatch(ds)
		return err
	}
}

func (c directClient) get(key string) (string, bool, int64, error) {
	ps, found, epoch, err := c.srv.Get(key)
	return firstValue(ps), found, epoch, err
}

func (c directClient) mget(keys []string) ([]bool, int64, error) {
	_, found, epoch, err := c.srv.MultiGet(keys)
	return found, epoch, err
}

// httpClient calls the handlers through ServeHTTP on a recorder: the
// full request parsing and JSON encoding, and no socket.
type httpClient struct {
	h http.Handler
}

func (c httpClient) do(req *http.Request, want int, into any) error {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return json.Unmarshal(rec.Body.Bytes(), into)
}

func (c httpClient) prepare(ds []kv.Delta) func() error {
	req := ingest.HTTPIngestRequest{Deltas: make([]ingest.HTTPDelta, len(ds))}
	for i, d := range ds {
		req.Deltas[i] = ingest.HTTPDelta{Key: d.Key, Value: d.Value, Op: string(d.Op)}
	}
	body, err := json.Marshal(req)
	return func() error {
		if err != nil {
			return err
		}
		var resp ingest.HTTPIngestResponse
		err := c.do(httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)), http.StatusAccepted, &resp)
		if err == nil && resp.Records != len(ds) {
			err = fmt.Errorf("POST /ingest accepted %d of %d records", resp.Records, len(ds))
		}
		return err
	}
}

func (c httpClient) get(key string) (string, bool, int64, error) {
	var resp serve.HTTPGetResponse
	err := c.do(httptest.NewRequest(http.MethodGet, "/get?key="+url.QueryEscape(key), nil), http.StatusOK, &resp)
	value := ""
	if len(resp.Pairs) > 0 {
		value = resp.Pairs[0].Value
	}
	return value, resp.Found, resp.Epoch, err
}

func (c httpClient) mget(keys []string) ([]bool, int64, error) {
	q := url.Values{"key": keys}
	var resp serve.HTTPMGetResponse
	err := c.do(httptest.NewRequest(http.MethodGet, "/mget?"+q.Encode(), nil), http.StatusOK, &resp)
	found := make([]bool, len(resp.Values))
	for i, v := range resp.Values {
		found[i] = v.Found
	}
	return found, resp.Epoch, err
}
