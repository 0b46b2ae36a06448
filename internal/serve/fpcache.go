// The fingerprint cache: request body bytes to search fingerprint.

package serve

import (
	"bytes"
	"encoding/json"
	"sync"
)

// MaxRequestBody bounds a request document; real requests are a few
// hundred bytes.
const MaxRequestBody = 1 << 20

// Bounds on what a FingerprintCache keeps. Bodies above maxCachedBody are
// fingerprinted on every request rather than kept, so no client can evict
// the popular requests with a few large ones; once the kept bodies and keys
// would exceed maxCachedBytes the cache starts over. At a few hundred bytes
// per body that is a working set of thousands of distinct requests.
const (
	maxCachedBody  = 4 << 10
	maxCachedBytes = 1 << 20
)

// FingerprintCache memoizes search fingerprints by exact request body
// bytes. Fingerprinting builds the whole problem (graph and machine), far
// too slow to redo per request at fleet rates, while bodies repeat heavily
// (the same popular requests), so an exact-bytes cache removes almost all
// of the cost. The daemon's submit path keeps one, which a fleet replica
// shares through its daemon, and the fleet router keeps its own.
type FingerprintCache struct {
	mu   sync.Mutex
	keys map[string]string
	// held counts the body and key bytes in keys; computed counts the
	// fingerprints added, cached or not.
	held     int
	computed int
}

// NewFingerprintCache returns an empty cache.
func NewFingerprintCache() *FingerprintCache {
	return &FingerprintCache{keys: make(map[string]string)}
}

// Key returns the search fingerprint of a raw request body: a lookup when
// the body was fingerprinted before, otherwise decoded (unknown fields
// rejected), normalized and fingerprinted, returning those steps' errors
// as they are.
func (c *FingerprintCache) Key(body []byte) (string, error) {
	if key, ok := c.lookup(body); ok {
		return key, nil
	}
	req, err := decodeRequest(body)
	if err != nil {
		return "", err
	}
	if err := req.Normalize(); err != nil {
		return "", err
	}
	key, err := req.Fingerprint()
	if err != nil {
		return "", err
	}
	c.add(body, key)
	return key, nil
}

// lookup returns the cached fingerprint of body, if any.
func (c *FingerprintCache) lookup(body []byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.keys[string(body)]
	return key, ok
}

// add records key as body's fingerprint, within the cache's bounds.
func (c *FingerprintCache) add(body []byte, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.computed++
	if len(body) > maxCachedBody {
		return
	}
	if _, ok := c.keys[string(body)]; ok {
		return // a concurrent miss on the same body got here first
	}
	size := len(body) + len(key)
	if c.held+size > maxCachedBytes {
		c.keys = make(map[string]string)
		c.held = 0
	}
	c.keys[string(body)] = key
	c.held += size
}

// decodeRequest decodes the request document at the head of body,
// rejecting unknown fields.
func decodeRequest(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}
