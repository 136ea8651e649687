package s3

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/faultpoint"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Metric names the client publishes (docs/OBSERVABILITY.md is the
// catalog). They sit under store.remote.* next to the tier-level
// counters the store itself publishes, so one dashboard section covers
// the whole cold tier.
const (
	MetricRequests  = "store.remote.requests_total"
	MetricRetries   = "store.remote.retries_total"
	MetricErrors    = "store.remote.errors_total"
	MetricBytesUp   = "store.remote.bytes_up_total"
	MetricBytesDown = "store.remote.bytes_down_total"
	MetricPresigned = "store.remote.presigned_total"
	MetricMultipart = "store.remote.multipart_uploads_total"
)

// FaultRequest names the fault-injection point fired before every HTTP
// attempt; arming it with "fail" simulates the network eating the
// request (retryable), with "stall:dur" a slow remote.
const FaultRequest = "store.s3.request"

// MinPartSize is S3's minimum non-final multipart part size (5 MiB).
const MinPartSize = 5 << 20

// Config describes an S3-compatible endpoint. Endpoint and Bucket are
// required; everything else has workable defaults.
type Config struct {
	// Endpoint is the server base URL, e.g. "http://127.0.0.1:9000" or
	// "https://s3.us-west-2.amazonaws.com". Requests are path-style:
	// <endpoint>/<bucket>/<object>.
	Endpoint string
	// Bucket holds the objects. It must already exist (FakeServer
	// creates buckets implicitly).
	Bucket string
	// Prefix namespaces every object key, e.g. "trilliong/" (a trailing
	// slash is added when missing).
	Prefix string
	// Region participates in SigV4 signing ("" = us-east-1).
	Region string
	// AccessKey/SecretKey sign requests; both empty = anonymous
	// (unsigned) requests, which suit auth-free test servers.
	AccessKey string
	SecretKey string
	// PartSize is the multipart upload part size in bytes; payloads at
	// or under it go up as one PUT (0 = 8 MiB; values under MinPartSize
	// are raised to it).
	PartSize int64
	// Telemetry receives the store.remote.* transport metrics (nil =
	// private registry).
	Telemetry *telemetry.Registry

	// now overrides the signing clock in tests; maxAttempts and
	// backoff replace defaultMaxAttempts and the default retry pacing.
	now         func() time.Time
	maxAttempts int
	backoff     backoff.Policy
}

// defaultMaxAttempts bounds tries per HTTP operation. Retries are
// triggered by transport errors, 429 and 5xx, and paced by the backoff
// package's defaults: 100ms doubling to a 5s cap, without jitter.
const defaultMaxAttempts = 4

// Client talks to one bucket of an S3-compatible object store. It
// implements store.Backend and store.Presigner and is safe for
// concurrent use.
type Client struct {
	cfg    Config
	base   *url.URL
	sg     signer
	http   *http.Client
	now    func() time.Time
	policy backoff.Policy

	requests, retries, errors *telemetry.Counter
	bytesUp, bytesDown        *telemetry.Counter
	presigned, multipart      *telemetry.Counter
}

// New validates cfg and builds a client.
func New(cfg Config) (*Client, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("s3: endpoint is required")
	}
	if cfg.Bucket == "" {
		return nil, fmt.Errorf("s3: bucket is required")
	}
	base, err := url.Parse(cfg.Endpoint)
	if err != nil || base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("s3: endpoint %q is not an absolute URL", cfg.Endpoint)
	}
	if (cfg.AccessKey == "") != (cfg.SecretKey == "") {
		return nil, fmt.Errorf("s3: access key and secret key must be set together")
	}
	if cfg.Region == "" {
		cfg.Region = "us-east-1"
	}
	if cfg.PartSize <= 0 {
		cfg.PartSize = 8 << 20
	}
	if cfg.PartSize < MinPartSize {
		cfg.PartSize = MinPartSize
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = defaultMaxAttempts
	}
	if cfg.Prefix != "" && !strings.HasSuffix(cfg.Prefix, "/") {
		cfg.Prefix += "/"
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	return &Client{
		cfg:       cfg,
		base:      base,
		sg:        signer{access: cfg.AccessKey, secret: cfg.SecretKey, region: cfg.Region},
		http:      &http.Client{Timeout: 10 * time.Minute},
		now:       now,
		policy:    cfg.backoff,
		requests:  tel.Counter(MetricRequests),
		retries:   tel.Counter(MetricRetries),
		errors:    tel.Counter(MetricErrors),
		bytesUp:   tel.Counter(MetricBytesUp),
		bytesDown: tel.Counter(MetricBytesDown),
		presigned: tel.Counter(MetricPresigned),
		multipart: tel.Counter(MetricMultipart),
	}, nil
}

// FromSpec parses a remote-store spec of the form
//
//	s3://<bucket>[/<prefix>]?endpoint=<url>[&region=R][&part-size=N][&access-key=K&secret-key=S]
//
// into a Config. Credentials default to the AWS_ACCESS_KEY_ID /
// AWS_SECRET_ACCESS_KEY environment variables when the query does not
// carry them; both absent means anonymous requests. This is the format
// the -remote-store CLI flags accept.
func FromSpec(spec string) (Config, error) {
	u, err := url.Parse(spec)
	if err != nil {
		return Config{}, fmt.Errorf("s3: spec %q: %w", spec, err)
	}
	if u.Scheme != "s3" {
		return Config{}, fmt.Errorf("s3: spec %q: scheme must be s3://", spec)
	}
	if u.Host == "" {
		return Config{}, fmt.Errorf("s3: spec %q: missing bucket", spec)
	}
	q := u.Query()
	cfg := Config{
		Endpoint:  q.Get("endpoint"),
		Bucket:    u.Host,
		Prefix:    strings.TrimPrefix(u.Path, "/"),
		Region:    q.Get("region"),
		AccessKey: q.Get("access-key"),
		SecretKey: q.Get("secret-key"),
	}
	if cfg.Endpoint == "" {
		return Config{}, fmt.Errorf("s3: spec %q: endpoint query parameter is required", spec)
	}
	if v := q.Get("part-size"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return Config{}, fmt.Errorf("s3: spec %q: bad part-size %q", spec, v)
		}
		cfg.PartSize = n
	}
	if cfg.AccessKey == "" && cfg.SecretKey == "" {
		cfg.AccessKey = os.Getenv("AWS_ACCESS_KEY_ID")
		cfg.SecretKey = os.Getenv("AWS_SECRET_ACCESS_KEY")
	}
	return cfg, nil
}

// Open is FromSpec + New with a telemetry registry: the one-call path
// the CLIs use.
func Open(spec string, tel *telemetry.Registry) (*Client, error) {
	cfg, err := FromSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = tel
	return New(cfg)
}

// objectKey is the bucket-relative key of one of key's objects.
func (c *Client) objectKey(key store.Key, suffix string) string {
	return c.cfg.Prefix + store.ObjectName(key, suffix)
}

// objectURL is the absolute path-style URL of a bucket-relative key.
func (c *Client) objectURL(key string) *url.URL {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + "/" + c.cfg.Bucket + "/" + key
	return &u
}

// apiError is a non-2xx S3 response.
type apiError struct {
	Status int
	Method string
	Key    string
	Body   string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("s3: %s %s: HTTP %d: %s", e.Method, e.Key, e.Status, strings.TrimSpace(e.Body))
}

// retryable reports whether an attempt error is worth another try:
// transport errors, throttling and server-side 5xx are; 4xx are not.
func retryable(err error) bool {
	var ae *apiError
	if ok := asAPIError(err, &ae); ok {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return true // transport-level failure
}

func asAPIError(err error, out **apiError) bool {
	for e := err; e != nil; {
		if ae, ok := e.(*apiError); ok {
			*out = ae
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// do runs one HTTP operation with sign-per-attempt, retry-with-backoff
// and telemetry. makeReq builds a fresh request per attempt (bodies
// must be re-readable); handle consumes a 2xx response. 404 is
// returned to the caller as a *apiError without retries — absence is
// an answer, not a failure.
func (c *Client) do(op string, makeReq func() (*http.Request, string, error), handle func(*http.Response) error) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			c.policy.Sleep(attempt-1, nil)
		}
		lastErr = c.attempt(makeReq, handle)
		if lastErr == nil {
			return nil
		}
		var ae *apiError
		if asAPIError(lastErr, &ae) && ae.Status == http.StatusNotFound {
			return lastErr
		}
		if !retryable(lastErr) {
			break
		}
	}
	c.errors.Inc()
	return fmt.Errorf("s3: %s: %w", op, lastErr)
}

func (c *Client) attempt(makeReq func() (*http.Request, string, error), handle func(*http.Response) error) error {
	req, payloadHash, err := makeReq()
	if err != nil {
		return err
	}
	if err := faultpoint.Fire(FaultRequest); err != nil {
		return err
	}
	c.requests.Inc()
	c.sg.sign(req, payloadHash, c.now().UTC())
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &apiError{Status: resp.StatusCode, Method: req.Method, Key: req.URL.Path, Body: string(body)}
	}
	if handle != nil {
		return handle(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// request returns do's request builder for method on u carrying body
// b (nil for none), signed over b's SHA-256.
func request(method string, u *url.URL, b []byte) func() (*http.Request, string, error) {
	hash := sha256Hex(b)
	return func() (*http.Request, string, error) {
		req, err := http.NewRequest(method, u.String(), bytes.NewReader(b))
		return req, hash, err
	}
}

// putSmall uploads b as one PUT.
func (c *Client) putSmall(key string, b []byte) error {
	err := c.do("put "+key, request(http.MethodPut, c.objectURL(key), b), nil)
	if err == nil {
		c.bytesUp.Add(int64(len(b)))
	}
	return err
}

// Put implements store.Backend: payload first (multipart when large),
// sidecar second, so a torn upload leaves a payload without a sidecar
// — an object that does not exist to readers.
func (c *Client) Put(key store.Key, r io.Reader, side store.Sidecar) error {
	if err := c.putPayload(c.objectKey(key, store.PayloadSuffix), r, side.Size); err != nil {
		return err
	}
	return c.putSmall(c.objectKey(key, store.SidecarSuffix), side.Encode())
}

// putPayload streams size bytes from r: one PUT at or under PartSize,
// multipart beyond it. Each part is buffered so a failed attempt can be
// retried without rewinding r.
func (c *Client) putPayload(key string, r io.Reader, size int64) error {
	if size <= c.cfg.PartSize {
		b, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("s3: put %s: reading payload: %w", key, err)
		}
		if int64(len(b)) != size {
			return fmt.Errorf("s3: put %s: payload is %d bytes, sidecar says %d", key, len(b), size)
		}
		return c.putSmall(key, b)
	}

	uploadID, err := c.createMultipart(key)
	if err != nil {
		return err
	}
	c.multipart.Inc()
	var completed []completedPart
	buf := make([]byte, c.cfg.PartSize)
	for partNum := 1; ; partNum++ {
		n, rerr := io.ReadFull(r, buf)
		if rerr == io.EOF {
			break
		}
		if rerr != nil && rerr != io.ErrUnexpectedEOF {
			c.abortMultipart(key, uploadID)
			return fmt.Errorf("s3: put %s: reading payload: %w", key, rerr)
		}
		etag, uerr := c.uploadPart(key, uploadID, partNum, buf[:n])
		if uerr != nil {
			c.abortMultipart(key, uploadID)
			return uerr
		}
		completed = append(completed, completedPart{PartNumber: partNum, ETag: etag})
		if rerr == io.ErrUnexpectedEOF {
			break
		}
	}
	if len(completed) == 0 {
		c.abortMultipart(key, uploadID)
		return fmt.Errorf("s3: put %s: empty multipart payload", key)
	}
	if err := c.completeMultipart(key, uploadID, completed); err != nil {
		c.abortMultipart(key, uploadID)
		return err
	}
	return nil
}

type initiateMultipartResult struct {
	XMLName  xml.Name `xml:"InitiateMultipartUploadResult"`
	UploadID string   `xml:"UploadId"`
}

type completedPart struct {
	PartNumber int    `xml:"PartNumber"`
	ETag       string `xml:"ETag"`
}

type completeMultipartUpload struct {
	XMLName xml.Name        `xml:"CompleteMultipartUpload"`
	Parts   []completedPart `xml:"Part"`
}

func (c *Client) createMultipart(key string) (string, error) {
	u := c.objectURL(key)
	q := u.Query()
	q.Set("uploads", "")
	u.RawQuery = q.Encode()
	var result initiateMultipartResult
	err := c.do("create multipart "+key, request(http.MethodPost, u, nil), func(resp *http.Response) error {
		return xml.NewDecoder(resp.Body).Decode(&result)
	})
	if err != nil {
		return "", err
	}
	if result.UploadID == "" {
		return "", fmt.Errorf("s3: create multipart %s: empty upload id", key)
	}
	return result.UploadID, nil
}

func (c *Client) uploadPart(key, uploadID string, partNum int, b []byte) (etag string, err error) {
	u := c.objectURL(key)
	q := u.Query()
	q.Set("partNumber", strconv.Itoa(partNum))
	q.Set("uploadId", uploadID)
	u.RawQuery = q.Encode()
	err = c.do(fmt.Sprintf("upload part %d of %s", partNum, key), request(http.MethodPut, u, b), func(resp *http.Response) error {
		etag = resp.Header.Get("ETag")
		io.Copy(io.Discard, resp.Body)
		return nil
	})
	if err == nil {
		c.bytesUp.Add(int64(len(b)))
	}
	return etag, err
}

func (c *Client) completeMultipart(key, uploadID string, parts []completedPart) error {
	u := c.objectURL(key)
	q := u.Query()
	q.Set("uploadId", uploadID)
	u.RawQuery = q.Encode()
	body, err := xml.Marshal(completeMultipartUpload{Parts: parts})
	if err != nil {
		return err
	}
	return c.do("complete multipart "+key, request(http.MethodPost, u, body), func(resp *http.Response) error {
		// Some S3 implementations report completion failures inside a
		// 200 body; surface them rather than trusting the status line.
		b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if err != nil {
			return err
		}
		if bytes.Contains(b, []byte("<Error>")) {
			return &apiError{Status: http.StatusInternalServerError, Method: "POST", Key: key, Body: string(b)}
		}
		return nil
	})
}

// abortMultipart is best-effort cleanup of a failed upload.
func (c *Client) abortMultipart(key, uploadID string) {
	u := c.objectURL(key)
	q := u.Query()
	q.Set("uploadId", uploadID)
	u.RawQuery = q.Encode()
	c.do("abort multipart "+key, request(http.MethodDelete, u, nil), nil)
}

// getSmall fetches a whole object into memory; absent objects are
// (nil, false, nil).
func (c *Client) getSmall(key string) ([]byte, bool, error) {
	var body []byte
	err := c.do("get "+key, request(http.MethodGet, c.objectURL(key), nil), func(resp *http.Response) error {
		var rerr error
		body, rerr = io.ReadAll(resp.Body)
		return rerr
	})
	if err != nil {
		var ae *apiError
		if asAPIError(err, &ae) && ae.Status == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	c.bytesDown.Add(int64(len(body)))
	return body, true, nil
}

// Get implements store.Backend: the sidecar is fetched first (also the
// existence check), then the payload streams into w. A payload that
// dies mid-stream surfaces as an error — w may have partial bytes; the
// store's verify-on-promote discards them.
func (c *Client) Get(key store.Key, w io.Writer) (store.Sidecar, bool, error) {
	side, ok, err := c.Head(key)
	if err != nil || !ok {
		return store.Sidecar{}, false, err
	}
	var n int64
	var started bool
	get := request(http.MethodGet, c.objectURL(c.objectKey(key, store.PayloadSuffix)), nil)
	err = c.do("get "+c.objectKey(key, store.PayloadSuffix), func() (*http.Request, string, error) {
		if started {
			// Bytes already reached w; a blind retry would corrupt the
			// stream. Fail the operation instead.
			return nil, "", fmt.Errorf("payload stream interrupted after %d bytes", n)
		}
		return get()
	}, func(resp *http.Response) error {
		started = true
		var rerr error
		n, rerr = io.Copy(w, resp.Body)
		return rerr
	})
	if err != nil {
		var ae *apiError
		if asAPIError(err, &ae) && ae.Status == http.StatusNotFound {
			// Sidecar present but payload gone: a torn remote write.
			return store.Sidecar{}, false, nil
		}
		return store.Sidecar{}, false, err
	}
	c.bytesDown.Add(n)
	return side, true, nil
}

// Head implements store.Backend: the sidecar object is the existence
// oracle, exactly as a local .sum file is.
func (c *Client) Head(key store.Key) (store.Sidecar, bool, error) {
	b, ok, err := c.getSmall(c.objectKey(key, store.SidecarSuffix))
	if err != nil || !ok {
		return store.Sidecar{}, false, err
	}
	side, err := store.ParseSidecar(b)
	if err != nil {
		// A torn or alien sidecar: the object is not servable.
		return store.Sidecar{}, false, nil
	}
	return side, true, nil
}

// Delete implements store.Backend (sidecar first, so a torn delete
// leaves an invisible payload, not a corrupt-looking object).
func (c *Client) Delete(key store.Key) error {
	for _, suffix := range []string{store.SidecarSuffix, store.PayloadSuffix} {
		err := c.do("delete "+c.objectKey(key, suffix), request(http.MethodDelete, c.objectURL(c.objectKey(key, suffix)), nil), nil)
		if err != nil {
			var ae *apiError
			if asAPIError(err, &ae) && ae.Status == http.StatusNotFound {
				continue
			}
			return err
		}
	}
	return nil
}

type listBucketResult struct {
	XMLName               xml.Name `xml:"ListBucketResult"`
	IsTruncated           bool     `xml:"IsTruncated"`
	NextContinuationToken string   `xml:"NextContinuationToken"`
	Contents              []struct {
		Key  string `xml:"Key"`
		Size int64  `xml:"Size"`
	} `xml:"Contents"`
}

// listPage decodes one ListObjectsV2 response body: the keys of the
// sidecar objects it lists under prefix, and the continuation token of
// the next page ("" when the listing is complete).
func listPage(body io.Reader, prefix string) (keys []store.Key, next string, err error) {
	var page listBucketResult
	if err := xml.NewDecoder(body).Decode(&page); err != nil {
		return nil, "", err
	}
	for _, obj := range page.Contents {
		key, suffix, ok := store.KeyFromObjectName(strings.TrimPrefix(obj.Key, prefix))
		if ok && suffix == store.SidecarSuffix {
			keys = append(keys, key)
		}
	}
	if page.IsTruncated {
		next = page.NextContinuationToken
	}
	return keys, next, nil
}

// List implements store.Backend: ListObjectsV2 pages over the prefix,
// then sidecars are fetched (concurrently, bounded) to build entries.
// A server that hands back a continuation token already sent would
// page forever; that is an error.
func (c *Client) List() ([]store.BackendEntry, error) {
	var keys []store.Key
	sent := map[string]bool{}
	token := ""
	for {
		u := *c.base
		u.Path = strings.TrimSuffix(u.Path, "/") + "/" + c.cfg.Bucket
		q := url.Values{}
		q.Set("list-type", "2")
		if c.cfg.Prefix != "" {
			q.Set("prefix", c.cfg.Prefix)
		}
		if token != "" {
			q.Set("continuation-token", token)
		}
		u.RawQuery = q.Encode()
		var (
			page []store.Key
			next string
		)
		err := c.do("list "+c.cfg.Bucket, request(http.MethodGet, &u, nil), func(resp *http.Response) (err error) {
			page, next, err = listPage(resp.Body, c.cfg.Prefix)
			return err
		})
		if err != nil {
			return nil, err
		}
		keys = append(keys, page...)
		if next == "" {
			break
		}
		if sent[next] {
			return nil, fmt.Errorf("s3: list %s: the server repeated continuation token %q", c.cfg.Bucket, next)
		}
		sent[next] = true
		token = next
	}

	entries := make([]store.BackendEntry, len(keys))
	errs := make([]error, len(keys))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			side, ok, err := c.Head(key)
			if ok {
				entries[i] = store.BackendEntry{Key: key, Side: side}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	out := entries[:0]
	for i, e := range entries {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if e.Key != (store.Key{}) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out, nil
}

// PresignGet implements store.Presigner: a time-limited URL for the
// payload object, fetchable by anyone — the zero-copy delivery path.
func (c *Client) PresignGet(key store.Key, ttl time.Duration) (string, error) {
	u := c.objectURL(c.objectKey(key, store.PayloadSuffix))
	signed := c.sg.presign(u, u.Host, c.now().UTC(), ttl)
	c.presigned.Inc()
	return signed.String(), nil
}

// Endpoint returns the configured endpoint URL (diagnostics).
func (c *Client) Endpoint() string { return c.cfg.Endpoint }

// compile-time interface checks
var (
	_ store.Backend   = (*Client)(nil)
	_ store.Presigner = (*Client)(nil)
)
