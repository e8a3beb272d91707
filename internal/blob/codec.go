package blob

import "fmt"

// Codec is a typed blob family: values of type V under keys of type K, whose
// String method renders the canonical key. Its Kind's Check is the decoder,
// so every layer that verifies bytes of the family decodes them the same way.
type Codec[K fmt.Stringer, V any] struct {
	Kind
	encode func(V) []byte
	decode func([]byte) (V, error)
}

// NewCodec builds the codec of a blob family from its constants and its
// encode/decode pair.
func NewCodec[K fmt.Stringer, V any](name, ext, indexSalt string, encode func(V) []byte, decode func([]byte) (V, error)) *Codec[K, V] {
	check := func(b []byte) error {
		_, err := decode(b)
		return err
	}
	return &Codec[K, V]{
		Kind:   Kind{Name: name, Ext: ext, IndexSalt: indexSalt, Check: check},
		encode: encode,
		decode: decode,
	}
}

// Over views a byte store as a typed store of the family.
func (c *Codec[K, V]) Over(s Store) *Typed[K, V] {
	return &Typed[K, V]{blobs: s, codec: c}
}

// Typed is a byte Store seen through a Codec.
type Typed[K fmt.Stringer, V any] struct {
	blobs Store
	codec *Codec[K, V]
}

// Get returns the value stored under k, or ok=false if absent. A blob the
// codec cannot decode is an error, not a miss.
func (t *Typed[K, V]) Get(k K) (V, bool, error) {
	var zero V
	b, ok, err := t.blobs.Get(k.String())
	if err != nil || !ok {
		return zero, false, err
	}
	v, err := t.codec.decode(b)
	if err != nil {
		return zero, false, fmt.Errorf("%s: %s: %w", t.codec.Name, k, err)
	}
	return v, true, nil
}

// Put stores v under k, replacing any previous entry.
func (t *Typed[K, V]) Put(k K, v V) error {
	return t.blobs.Put(k.String(), t.codec.encode(v))
}
