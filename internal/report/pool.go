package report

import (
	"bytes"
	"encoding/json"
	"sync"
)

// encodeState is one pooled JSON encoder with its backing buffer. The
// encoder is bound to the buffer once; Reset between uses keeps the grown
// capacity, so steady-state marshalling on the serving path stops paying
// encoding/json's internal buffer growth on every response.
type encodeState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	es := &encodeState{}
	es.enc = json.NewEncoder(&es.buf)
	return es
}}

// marshalJSONLine renders v as compact JSON with a trailing newline — the
// wire framing every swappd endpoint uses — through a pooled encoder.
// json.Encoder escapes and compacts exactly like json.Marshal, so the
// bytes are identical to json.Marshal(v) + "\n". The returned slice is a
// fresh copy the caller owns.
func marshalJSONLine(v any) ([]byte, error) {
	es := encPool.Get().(*encodeState)
	es.buf.Reset()
	if err := es.enc.Encode(v); err != nil {
		encPool.Put(es)
		return nil, err
	}
	out := make([]byte, es.buf.Len())
	copy(out, es.buf.Bytes())
	encPool.Put(es)
	return out, nil
}
