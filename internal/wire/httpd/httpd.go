// Package httpd adapts a wire.Server to HTTP. It is deliberately thin:
// each request becomes one wire-protocol connection over an in-process
// net.Pipe, so planning, admission, cancellation and error
// classification all happen in the wire/engine path and the handler
// only translates — the response status comes from wire.Class.HTTPStatus,
// the single home of the error-class ↔ HTTP mapping.
package httpd

import (
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strings"

	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

// New returns the HTTP handler over srv:
//
//	POST /query  (or GET with ?q=)  → {"attrs": [...], "rows": [[...]], "elapsed": "..."}
//	GET  /stats                     → the engine statistics snapshot as JSON
//
// A /query body is the SQL text, or a form whose q field is; a body over
// 1 MiB is answered 413.
//
// A client that disconnects mid-query cancels it through the wire
// protocol's Cancel path and is reported as 499 server-side.
func New(srv *wire.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		text, err := queryText(w, r)
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		if text == "" {
			http.Error(w, "missing query (q parameter or request body)", http.StatusBadRequest)
			return
		}
		cc, err := client.NewPipe(srv)
		if err != nil {
			http.Error(w, err.Error(), wire.ClassUnavailable.HTTPStatus())
			return
		}
		defer cc.Close()
		// Relay request-context cancellation (client hung up) onto the wire.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-r.Context().Done():
				cc.Cancel()
			case <-done:
			}
		}()
		res, err := cc.QueryDecoded(text)
		if err != nil {
			status := http.StatusInternalServerError
			var werr *wire.Error
			if errors.As(err, &werr) {
				status = werr.Class.HTTPStatus()
			}
			http.Error(w, err.Error(), status)
			return
		}
		rows := res.Strs
		if rows == nil {
			rows = [][]string{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"attrs":   res.Attrs,
			"rows":    rows,
			"elapsed": res.Elapsed.String(),
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(srv.Stats())
	})
	return mux
}

// maxBody bounds a /query request body.
const maxBody = 1 << 20

// queryText is the statement a /query request carries: q from the URL if
// it is there, else the body — a form's q field, or the whole body as SQL
// text (what `curl -d '<sql>'` sends, labelled as a form). A body that
// does not arrive whole is an error, never a statement: cut short, it
// could run as another one.
func queryText(w http.ResponseWriter, r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return "", err
	}
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/x-www-form-urlencoded" {
		if form, err := url.ParseQuery(string(body)); err == nil && form.Has("q") {
			body = []byte(form.Get("q"))
		}
	}
	return strings.TrimSpace(string(body)), nil
}
