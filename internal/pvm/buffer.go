package pvm

//simlint:allow-file deadexport deferred sweep: test-only feature; deleting it also deletes its 3 dedicated tests (queued on ROADMAP)

import "fmt"

// Buffer is a PVM3-style typed pack buffer: the sender packs typed data
// (pvm_pkint, pvm_pkdouble, ...), the receiver unpacks in the same
// order. On the SPP-1000 the buffer lives in shared memory — packing is
// the only copy on the fast path (§3.1).
type Buffer struct {
	items []interface{}
	next  int
	bytes int
}

// NewBuffer returns an empty pack buffer (pvm_initsend).
func NewBuffer() *Buffer { return &Buffer{} }

// Bytes reports the packed payload size.
func (b *Buffer) Bytes() int { return b.bytes }

// PackInt packs a slice of ints (pvm_pkint).
func (b *Buffer) PackInt(v []int) *Buffer {
	cp := append([]int(nil), v...)
	b.items = append(b.items, cp)
	b.bytes += 4 * len(v)
	return b
}

// PackDouble packs a slice of float64 (pvm_pkdouble).
func (b *Buffer) PackDouble(v []float64) *Buffer {
	cp := append([]float64(nil), v...)
	b.items = append(b.items, cp)
	b.bytes += 8 * len(v)
	return b
}

// PackString packs a string (pvm_pkstr).
func (b *Buffer) PackString(s string) *Buffer {
	b.items = append(b.items, s)
	b.bytes += len(s)
	return b
}

// UnpackInt unpacks the next item as ints (pvm_upkint).
func (b *Buffer) UnpackInt() ([]int, error) {
	v, err := b.take()
	if err != nil {
		return nil, err
	}
	iv, ok := v.([]int)
	if !ok {
		return nil, fmt.Errorf("pvm: unpack type mismatch: have %T, want []int", v)
	}
	return iv, nil
}

// UnpackDouble unpacks the next item as float64s (pvm_upkdouble).
func (b *Buffer) UnpackDouble() ([]float64, error) {
	v, err := b.take()
	if err != nil {
		return nil, err
	}
	fv, ok := v.([]float64)
	if !ok {
		return nil, fmt.Errorf("pvm: unpack type mismatch: have %T, want []float64", v)
	}
	return fv, nil
}

// UnpackString unpacks the next item as a string (pvm_upkstr).
func (b *Buffer) UnpackString() (string, error) {
	v, err := b.take()
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("pvm: unpack type mismatch: have %T, want string", v)
	}
	return s, nil
}

func (b *Buffer) take() (interface{}, error) {
	if b.next >= len(b.items) {
		return nil, fmt.Errorf("pvm: unpack past end of buffer")
	}
	v := b.items[b.next]
	b.next++
	return v, nil
}

// SendBuffer transmits a pack buffer (pvm_send with the active buffer).
func (t *Task) SendBuffer(dst, tag int, b *Buffer) {
	t.Send(dst, tag, b.Bytes(), b)
}

// RecvBuffer blocks for the next message carrying a pack buffer.
func (t *Task) RecvBuffer() (*Message, *Buffer, error) {
	msg := t.Recv()
	buf, ok := msg.Payload.(*Buffer)
	if !ok {
		return msg, nil, fmt.Errorf("pvm: message payload is %T, not a pack buffer", msg.Payload)
	}
	return msg, buf, nil
}
