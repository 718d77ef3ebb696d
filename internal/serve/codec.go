// Binary wire codec for the infer endpoint — the compact alternative
// to the JSON schema in wire.go, negotiated per request via
// Content-Type (request body) and Accept (response body) set to
// ContentTypeBinary. The codec exists so load generators can measure
// the JSON tax directly: both codecs decode into the *same* wire
// structs, so validation (ToMeasurements), canonical digesting
// (digestInfer), coalescing, and caching are shared — only the byte
// layer differs.
//
// Frame layout (all multi-byte fields little-endian):
//
//	[4]byte magic "BLUW"
//	u8     version (currently 1)
//	u8     kind    (1 = infer request, 2 = infer response,
//	                3 = observe request, 4 = observe response)
//	u32    payload length
//	...    payload (exactly the declared length; trailing bytes reject)
//
// Infer request payload:
//
//	u8  n
//	n × f64 p[i]
//	u16 pairCount,   pairCount   × (u8 i, u8 j, f64 p)
//	u16 tripleCount, tripleCount × (u8 i, u8 j, u8 k, f64 p)
//	u64 seed, i32 timeoutMS
//
// An older infer request carried 40 bytes of solver options where seed
// and timeoutMS now take 12; such a frame still says version 1 and is
// refused by the trailing-bytes check. The version stays 1 because the
// WAL stores observe frames under it.
//
// Infer response payload:
//
//	u8  n
//	u16 htCount × (f64 q, u64 clients bitmask)
//	f64 violation, f64 maxViolation
//	u8  converged (0 or 1)
//	u32 starts, u32 iterations
//
// Observe request payload (the streaming ingestion fast path — one
// observation is 2 + schedCount + 8 bytes against ~60 of JSON):
//
//	u8  sessionLen, sessionLen bytes of session id
//	u8  n
//	u8  seal (0 or 1)
//	i32 timeoutMS
//	u16 count, count × (u8 schedCount, schedCount × u8 scheduled,
//	                    u64 accessed bitmask)
//
// Observe response payload:
//
//	u8  sessionLen, sessionLen bytes of session id
//	u32 folded, u32 epoch
//	u64 digest
//	u32 invalidated, u32 evicted
//
// Decoding is structural only — index ranges, probability bounds, and
// topology invariants stay the job of ToMeasurements/ToTopology, the
// same gate the JSON path goes through. Every malformed input returns
// an error wrapping errMalformedFrame; nothing panics, which the fuzz
// suite in codec_fuzz_test.go enforces.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"blu/internal/blueprint"
)

// ContentTypeBinary selects the binary codec on the infer endpoint: as
// a request Content-Type it declares a binary body, in Accept it asks
// for a binary response. Everything else (errors included) stays JSON.
const ContentTypeBinary = "application/x-blu-binary"

const (
	wireVersion         = 1
	kindInferRequest    = 1
	kindInferResponse   = 2
	kindObserveRequest  = 3
	kindObserveResponse = 4

	frameHeaderLen = 10 // magic(4) + version(1) + kind(1) + length(4)

	// maxFramePayload caps the declared payload length, mirroring the
	// HTTP body cap so a forged length field cannot drive a huge
	// allocation.
	maxFramePayload = 8 << 20
)

var wireMagic = [4]byte{'B', 'L', 'U', 'W'}

// errMalformedFrame is the sentinel every decode failure wraps.
var errMalformedFrame = errors.New("binary codec: malformed frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMalformedFrame, fmt.Sprintf(format, args...))
}

// wireWriter appends fixed-width little-endian fields to a buffer that
// was pre-sized by the encoder, so a whole encode is one allocation.
type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *wireWriter) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wireWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// i32 encodes a Go int that must fit int32 (the wire width for counts
// and timeouts).
func (w *wireWriter) i32(name string, v int) error {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return fmt.Errorf("binary codec: %s=%d does not fit int32", name, v)
	}
	w.u32(uint32(int32(v)))
	return nil
}

// str writes a u8-length-prefixed string; callers bound it to 255 bytes.
func (w *wireWriter) str(s string) {
	w.u8(byte(len(s)))
	w.b = append(w.b, s...)
}

func (w *wireWriter) flag(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// wireReader consumes fixed-width little-endian fields. The first
// failure latches in err and exhausts the reader, so every later read
// returns zero: a decoder reads its whole layout straight through and
// checks end() once.
type wireReader struct {
	b   []byte
	off int
	err error
}

// errTruncated is latched by a read past the end of the input. It is
// built once so that the reads, which only assign it, stay small enough
// to inline.
var errTruncated = frameErr("truncated")

func (r *wireReader) remaining() int { return len(r.b) - r.off }

// need reports whether n more bytes remain; when they do not, it
// latches errTruncated and exhausts the reader.
func (r *wireReader) need(n int) bool {
	if r.remaining() >= n {
		return true
	}
	if r.err == nil {
		r.err = errTruncated
	}
	r.off = len(r.b)
	return false
}

// fail latches the first error (wrapping errMalformedFrame) and
// exhausts the reader.
func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = frameErr(format, args...)
	}
	r.off = len(r.b)
}

func (r *wireReader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *wireReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) i32() int { return int(int32(r.u32())) }

// take returns the next n bytes, aliasing the input.
func (r *wireReader) take(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// str reads a u8-length-prefixed string.
func (r *wireReader) str() string { return string(r.take(int(r.u8()))) }

// flag reads a byte that must be 0 or 1.
func (r *wireReader) flag(what string) bool {
	v := r.u8()
	if v > 1 {
		r.fail("%s byte %d, want 0 or 1", what, v)
	}
	return v == 1
}

// count passes through c, an item count just read, when the remaining
// bytes can hold c items of at least each bytes, and fails (returning
// 0) otherwise — so a forged count is refused before anything sized by
// it is allocated.
func (r *wireReader) count(c, each int, what string) int {
	if c*each > r.remaining() {
		r.fail("truncated %s: %d bytes left for %d", what, r.remaining(), c)
		return 0
	}
	return c
}

// end returns the first error, or a trailing-bytes error when the
// layout left part of the input unread.
func (r *wireReader) end() error {
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing payload bytes", r.remaining())
	}
	return r.err
}

// appendFrameHeader writes the frame header with a placeholder length
// and returns the offset to backpatch once the payload is written.
func appendFrameHeader(b []byte, kind byte) ([]byte, int) {
	b = append(b, wireMagic[:]...)
	b = append(b, wireVersion, kind)
	lenOff := len(b)
	b = append(b, 0, 0, 0, 0)
	return b, lenOff
}

// openFrame validates the header and returns the payload slice.
func openFrame(data []byte, wantKind byte) ([]byte, error) {
	if len(data) < frameHeaderLen {
		return nil, frameErr("%d bytes, header needs %d", len(data), frameHeaderLen)
	}
	if [4]byte(data[:4]) != wireMagic {
		return nil, frameErr("bad magic %q", data[:4])
	}
	if data[4] != wireVersion {
		return nil, frameErr("unsupported version %d", data[4])
	}
	if data[5] != wantKind {
		return nil, frameErr("kind %d, want %d", data[5], wantKind)
	}
	n := binary.LittleEndian.Uint32(data[6:])
	if n > maxFramePayload {
		return nil, frameErr("declared payload %d exceeds cap %d", n, maxFramePayload)
	}
	payload := data[frameHeaderLen:]
	if uint32(len(payload)) != n {
		return nil, frameErr("payload is %d bytes, header declares %d", len(payload), n)
	}
	return payload, nil
}

// EncodeInferRequest renders req as one binary frame. It errors when a
// value does not fit the wire (client index or N beyond a byte, more
// than 65535 pairs/triples, a timeout beyond int32) rather than
// truncating; semantically invalid but representable values pass, to
// be rejected by ToMeasurements on the receiving side exactly like
// their JSON spelling.
func EncodeInferRequest(req *InferRequest) ([]byte, error) {
	m := &req.Measurements
	if m.N < 0 || m.N > 255 {
		return nil, fmt.Errorf("binary codec: n=%d does not fit the wire", m.N)
	}
	if len(m.P) > 255 {
		return nil, fmt.Errorf("binary codec: %d marginals do not fit the wire", len(m.P))
	}
	if len(m.Pairs) > math.MaxUint16 || len(m.Triples) > math.MaxUint16 {
		return nil, fmt.Errorf("binary codec: %d pairs / %d triples do not fit the wire",
			len(m.Pairs), len(m.Triples))
	}
	size := frameHeaderLen + 1 + 8*len(m.P) + 2 + 10*len(m.Pairs) + 2 + 11*len(m.Triples) + 12
	w := wireWriter{b: make([]byte, 0, size)}
	var lenOff int
	w.b, lenOff = appendFrameHeader(w.b, kindInferRequest)

	w.u8(byte(m.N))
	// The marginal count is implied by N on the wire; a mismatched P is
	// only representable when it matches, so encode rejects the rest
	// here (JSON would carry it to ToMeasurements, which rejects it the
	// same way).
	if len(m.P) != m.N {
		return nil, fmt.Errorf("binary codec: %d marginals for n=%d", len(m.P), m.N)
	}
	for _, p := range m.P {
		w.f64(p)
	}
	w.u16(uint16(len(m.Pairs)))
	for _, pr := range m.Pairs {
		if pr.I < 0 || pr.I > 255 || pr.J < 0 || pr.J > 255 {
			return nil, fmt.Errorf("binary codec: pair (%d,%d) does not fit the wire", pr.I, pr.J)
		}
		w.u8(byte(pr.I))
		w.u8(byte(pr.J))
		w.f64(pr.P)
	}
	w.u16(uint16(len(m.Triples)))
	for _, tr := range m.Triples {
		if tr.I < 0 || tr.I > 255 || tr.J < 0 || tr.J > 255 || tr.K < 0 || tr.K > 255 {
			return nil, fmt.Errorf("binary codec: triple (%d,%d,%d) does not fit the wire", tr.I, tr.J, tr.K)
		}
		w.u8(byte(tr.I))
		w.u8(byte(tr.J))
		w.u8(byte(tr.K))
		w.f64(tr.P)
	}
	w.u64(req.Options.Seed)
	if err := w.i32("timeout_ms", req.TimeoutMS); err != nil {
		return nil, err
	}

	binary.LittleEndian.PutUint32(w.b[lenOff:], uint32(len(w.b)-frameHeaderLen))
	return w.b, nil
}

// DecodeInferRequest parses one binary request frame into the same
// wire struct the JSON decoder fills, so the downstream validation and
// digest paths are codec-independent. Structural damage — short
// frames, bad magic, a length field that disagrees with the body,
// trailing bytes — errors without panicking.
func DecodeInferRequest(data []byte) (*InferRequest, error) {
	payload, err := openFrame(data, kindInferRequest)
	if err != nil {
		return nil, err
	}
	r := wireReader{b: payload}
	req := &InferRequest{}
	m := &req.Measurements
	m.N = int(r.u8())
	if n := r.count(m.N, 8, "marginals"); n > 0 {
		m.P = make([]float64, n)
		for i := range m.P {
			m.P[i] = r.f64()
		}
	}
	if c := r.count(int(r.u16()), 10, "pairs"); c > 0 {
		m.Pairs = make([]PairProb, c)
		for i := range m.Pairs {
			m.Pairs[i] = PairProb{I: int(r.u8()), J: int(r.u8()), P: r.f64()}
		}
	}
	if c := r.count(int(r.u16()), 11, "triples"); c > 0 {
		m.Triples = make([]TripleProb, c)
		for i := range m.Triples {
			m.Triples[i] = TripleProb{I: int(r.u8()), J: int(r.u8()), K: int(r.u8()), P: r.f64()}
		}
	}
	req.Options.Seed = r.u64()
	req.TimeoutMS = r.i32()
	if err := r.end(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeInferResponse renders resp as one binary frame. Client sets
// travel as 64-bit membership masks, so a terminal containing a client
// outside [0,64) is unrepresentable and errors (the solver cannot
// produce one; only a hand-built response can).
func EncodeInferResponse(resp *InferResponse) ([]byte, error) {
	t := &resp.Topology
	if t.N < 0 || t.N > 255 {
		return nil, fmt.Errorf("binary codec: n=%d does not fit the wire", t.N)
	}
	if len(t.HTs) > math.MaxUint16 {
		return nil, fmt.Errorf("binary codec: %d terminals do not fit the wire", len(t.HTs))
	}
	size := frameHeaderLen + 1 + 2 + 16*len(t.HTs) + 8 + 8 + 1 + 4 + 4
	w := wireWriter{b: make([]byte, 0, size)}
	var lenOff int
	w.b, lenOff = appendFrameHeader(w.b, kindInferResponse)

	w.u8(byte(t.N))
	w.u16(uint16(len(t.HTs)))
	for k, ht := range t.HTs {
		var mask uint64
		for _, c := range ht.Clients {
			if c < 0 || c >= blueprint.MaxClients {
				return nil, fmt.Errorf("binary codec: ht %d client %d does not fit the wire mask", k, c)
			}
			mask |= 1 << uint(c)
		}
		if bits.OnesCount64(mask) != len(ht.Clients) {
			return nil, fmt.Errorf("binary codec: ht %d repeats a client", k)
		}
		w.f64(ht.Q)
		w.u64(mask)
	}
	w.f64(resp.Violation)
	w.f64(resp.MaxViolation)
	w.flag(resp.Converged)
	if err := w.i32("starts", resp.Starts); err != nil {
		return nil, err
	}
	if err := w.i32("iterations", resp.Iterations); err != nil {
		return nil, err
	}

	binary.LittleEndian.PutUint32(w.b[lenOff:], uint32(len(w.b)-frameHeaderLen))
	return w.b, nil
}

// DecodeInferResponse parses one binary response frame. Client masks
// decode to ascending member lists, matching the canonical rendering
// TopologyToWire produces, so binary→struct→JSON equals the JSON the
// server would have sent directly.
func DecodeInferResponse(data []byte) (*InferResponse, error) {
	payload, err := openFrame(data, kindInferResponse)
	if err != nil {
		return nil, err
	}
	r := wireReader{b: payload}
	resp := &InferResponse{}
	resp.Topology.N = int(r.u8())
	if c := r.count(int(r.u16()), 16, "terminals"); c > 0 {
		resp.Topology.HTs = make([]HTWire, c)
		for i := range resp.Topology.HTs {
			resp.Topology.HTs[i] = HTWire{Q: r.f64(), Clients: blueprint.ClientSet(r.u64()).Members()}
		}
	}
	resp.Violation = r.f64()
	resp.MaxViolation = r.f64()
	resp.Converged = r.flag("converged")
	resp.Starts = r.i32()
	resp.Iterations = r.i32()
	if err := r.end(); err != nil {
		return nil, err
	}
	return resp, nil
}

// EncodeObserveRequest renders req as one binary frame. Accessed sets
// travel as 64-bit membership masks, so an accessed client outside
// [0,64) is unrepresentable and errors (such an index is a protocol
// error on the JSON path too — the handler rejects it before folding).
func EncodeObserveRequest(req *ObserveRequest) ([]byte, error) {
	if len(req.Session) > 255 {
		return nil, fmt.Errorf("binary codec: session id %d bytes does not fit the wire", len(req.Session))
	}
	if req.N < 0 || req.N > 255 {
		return nil, fmt.Errorf("binary codec: n=%d does not fit the wire", req.N)
	}
	if len(req.Observations) > math.MaxUint16 {
		return nil, fmt.Errorf("binary codec: %d observations do not fit the wire", len(req.Observations))
	}
	size := frameHeaderLen + 1 + len(req.Session) + 1 + 1 + 4 + 2
	for i := range req.Observations {
		size += 1 + len(req.Observations[i].Scheduled) + 8
	}
	w := wireWriter{b: make([]byte, 0, size)}
	var lenOff int
	w.b, lenOff = appendFrameHeader(w.b, kindObserveRequest)

	w.str(req.Session)
	w.u8(byte(req.N))
	w.flag(req.Seal)
	if err := w.i32("timeout_ms", req.TimeoutMS); err != nil {
		return nil, err
	}
	w.u16(uint16(len(req.Observations)))
	for oi := range req.Observations {
		ob := &req.Observations[oi]
		if len(ob.Scheduled) > 255 {
			return nil, fmt.Errorf("binary codec: observation %d schedules %d clients, wire cap 255",
				oi, len(ob.Scheduled))
		}
		w.u8(byte(len(ob.Scheduled)))
		for _, c := range ob.Scheduled {
			if c < 0 || c > 255 {
				return nil, fmt.Errorf("binary codec: observation %d scheduled client %d does not fit the wire", oi, c)
			}
			w.u8(byte(c))
		}
		var mask uint64
		for _, c := range ob.Accessed {
			if c < 0 || c >= blueprint.MaxClients {
				return nil, fmt.Errorf("binary codec: observation %d accessed client %d does not fit the wire mask", oi, c)
			}
			mask |= 1 << uint(c)
		}
		w.u64(mask)
	}

	binary.LittleEndian.PutUint32(w.b[lenOff:], uint32(len(w.b)-frameHeaderLen))
	return w.b, nil
}

// DecodeObserveRequest parses one binary observe frame into the same
// wire struct the JSON decoder fills; the handler's validation runs
// identically after either codec. Accessed masks decode to ascending
// member lists, matching the canonical JSON rendering.
func DecodeObserveRequest(data []byte) (*ObserveRequest, error) {
	payload, err := openFrame(data, kindObserveRequest)
	if err != nil {
		return nil, err
	}
	r := wireReader{b: payload}
	req := &ObserveRequest{}
	req.Session = r.str()
	req.N = int(r.u8())
	req.Seal = r.flag("seal")
	req.TimeoutMS = r.i32()
	// An observation is at least its u8 count and its u64 mask.
	if c := r.count(int(r.u16()), 9, "observations"); c > 0 {
		req.Observations = make([]ObservationWire, c)
		for oi := range req.Observations {
			sched := make([]int, r.count(int(r.u8()), 1, "scheduled clients"))
			for si := range sched {
				sched[si] = int(r.u8())
			}
			req.Observations[oi] = ObservationWire{Scheduled: sched, Accessed: blueprint.ClientSet(r.u64()).Members()}
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeObserveResponse renders resp as one binary frame. The digest
// travels as its raw 64 bits; a Digest string that is not 16 hex
// digits errors (only a hand-built response can carry one).
func EncodeObserveResponse(resp *ObserveResponse) ([]byte, error) {
	if len(resp.Session) > 255 {
		return nil, fmt.Errorf("binary codec: session id %d bytes does not fit the wire", len(resp.Session))
	}
	dg, err := strconv.ParseUint(resp.Digest, 16, 64)
	if err != nil || len(resp.Digest) != 16 {
		return nil, fmt.Errorf("binary codec: digest %q is not 16 hex digits", resp.Digest)
	}
	size := frameHeaderLen + 1 + len(resp.Session) + 4 + 4 + 8 + 4 + 4
	w := wireWriter{b: make([]byte, 0, size)}
	var lenOff int
	w.b, lenOff = appendFrameHeader(w.b, kindObserveResponse)

	w.str(resp.Session)
	if err := w.i32("folded", resp.Folded); err != nil {
		return nil, err
	}
	if err := w.i32("epoch", resp.Epoch); err != nil {
		return nil, err
	}
	w.u64(dg)
	if err := w.i32("invalidated", resp.Invalidated); err != nil {
		return nil, err
	}
	if err := w.i32("evicted", resp.Evicted); err != nil {
		return nil, err
	}

	binary.LittleEndian.PutUint32(w.b[lenOff:], uint32(len(w.b)-frameHeaderLen))
	return w.b, nil
}

// DecodeObserveResponse parses one binary observe response frame,
// rendering the digest back to the %016x string the JSON codec
// carries, so binary→struct→JSON equals the JSON the server would
// have sent directly.
func DecodeObserveResponse(data []byte) (*ObserveResponse, error) {
	payload, err := openFrame(data, kindObserveResponse)
	if err != nil {
		return nil, err
	}
	r := wireReader{b: payload}
	resp := &ObserveResponse{Session: r.str(), Folded: r.i32(), Epoch: r.i32()}
	dg := r.u64()
	resp.Invalidated = r.i32()
	resp.Evicted = r.i32()
	if err := r.end(); err != nil {
		return nil, err
	}
	resp.Digest = fmt.Sprintf("%016x", dg)
	return resp, nil
}
