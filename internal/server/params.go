package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
)

// Query-parameter parsing shared by every handler. All handlers go
// through these two helpers so a malformed value always produces the
// same 400 bad_request envelope with the message shape
// "<name> parameter %q is not <what>" — no endpoint hand-rolls its own
// strconv call or error wording.

// uintQuery parses the optional unsigned query parameter name. ok
// reports whether the parameter was present; err is a caller-facing
// message naming the parameter and the expected shape (what, e.g. "an
// epoch number").
func uintQuery(req *http.Request, name, what string) (val uint64, ok bool, err error) {
	v := req.URL.Query().Get(name)
	if v == "" {
		return 0, false, nil
	}
	n, perr := strconv.ParseUint(v, 10, 64)
	if perr != nil {
		return 0, true, fmt.Errorf("%s parameter %q is not %s", name, v, what)
	}
	return n, true, nil
}

// intQuery is uintQuery for signed integer parameters.
func intQuery(req *http.Request, name, what string) (val int, ok bool, err error) {
	v := req.URL.Query().Get(name)
	if v == "" {
		return 0, false, nil
	}
	n, perr := strconv.Atoi(v)
	if perr != nil {
		return 0, true, fmt.Errorf("%s parameter %q is not %s", name, v, what)
	}
	return n, true, nil
}

// workersParam parses the optional ?workers= query parameter. A
// non-numeric value is an error (the caller answers 400); numeric
// values are clamped to [1, 4×GOMAXPROCS] so a client cannot request an
// absurd goroutine count; absent means 0 (GOMAXPROCS).
func workersParam(req *http.Request) (int, error) {
	n, ok, err := intQuery(req, "workers", "an integer")
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil // GOMAXPROCS
	}
	if n < 1 {
		n = 1
	}
	if limit := 4 * runtime.GOMAXPROCS(0); n > limit {
		n = limit
	}
	return n, nil
}
