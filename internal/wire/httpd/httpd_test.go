package httpd_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"qppt"
	"qppt/internal/ssb"
	"qppt/internal/wire"
	"qppt/internal/wire/httpd"
)

// TestHTTPAdapter: the HTTP mode is a thin shell over the wire server —
// decoded results match the in-process decode, and every error class
// surfaces as the status wire.Class.HTTPStatus dictates.
func TestHTTPAdapter(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.005, Seed: 11})
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()
	hs := httptest.NewServer(httpd.New(srv))
	defer hs.Close()

	get := func(q string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/query?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// A good query returns the decoded rows the in-process path produces.
	text := ssb.SQLTexts["1.1"]
	status, body := get(text)
	if status != http.StatusOK {
		t.Fatalf("query returned %d: %s", status, body)
	}
	var got struct {
		Attrs []string   `json:"attrs"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	rows, _, err := eng.Session(ds.Cat).Query(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(rows.Rows) {
		t.Fatalf("HTTP returned %d rows, want %d", len(got.Rows), len(rows.Rows))
	}
	for i := range rows.Rows {
		for c := range rows.Attrs {
			if want := rows.Decode(i, c); got.Rows[i][c] != want {
				t.Fatalf("cell (%d,%d) = %q, want %q", i, c, got.Rows[i][c], want)
			}
		}
	}

	// A POST carries the text as the body — raw, raw under a form's content
	// type (what curl -d sends), or as a form's q field — with the same rows.
	post := func(contentType, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/query", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(out)
	}
	for _, p := range []struct{ contentType, body string }{
		{"text/plain", text},
		{"application/x-www-form-urlencoded", text},
		{"application/x-www-form-urlencoded", url.Values{"q": {text}}.Encode()},
	} {
		status, posted := post(p.contentType, p.body)
		if status != http.StatusOK || !sameRows(t, posted, body) {
			t.Errorf("POST %s %.30q returned %d %.200s, want the rows of the GET", p.contentType, p.body, status, posted)
		}
	}
	// A body over the limit is refused whole: cut at the limit, this one
	// would run without its last predicate and answer a wrong sum.
	long := "select sum(lo_revenue) from lineorder where lo_quantity < 25" + strings.Repeat(" ", 1<<20) + "and lo_discount = 99"
	if status, _ := post("text/plain", long); status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit body returned %d, want 413", status)
	}

	// Error classes map through wire.Class.HTTPStatus — the only mapping.
	if status, _ := get("SELECT broken FROM nowhere"); status != http.StatusBadRequest {
		t.Errorf("bad SQL returned %d, want 400", status)
	}
	if status, body := get(""); status != http.StatusBadRequest || !strings.Contains(body, "missing query") {
		t.Errorf("empty query returned %d %q, want 400", status, body)
	}

	// /stats serves the engine snapshot.
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(stats), "StmtCache") {
		t.Errorf("/stats returned %d %q", resp.StatusCode, stats)
	}

	// A closed engine answers 503 (ClassUnavailable), not a hang or a 500.
	eng.Close()
	if status, _ := get(text); status != http.StatusServiceUnavailable {
		t.Errorf("query on closed engine returned %d, want 503", status)
	}
}

// sameRows reports whether two /query answers hold the same attributes
// and rows (elapsed times differ).
func sameRows(t *testing.T, a, b string) bool {
	t.Helper()
	type answer struct {
		Attrs []string   `json:"attrs"`
		Rows  [][]string `json:"rows"`
	}
	var x, y answer
	if json.Unmarshal([]byte(a), &x) != nil || json.Unmarshal([]byte(b), &y) != nil {
		return false
	}
	return reflect.DeepEqual(x, y)
}
