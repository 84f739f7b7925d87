// Event-seam fixture: the shape of the real internal/noc.Tap, so the
// hookpure analyzer can resolve (*Tap).Subscribe by type.
package noc

type Event struct {
	Kind    uint8
	A, B, C int
}

type Tap struct {
	subs []func(Event)
}

func (t *Tap) Subscribe(mask uint32, fn func(Event)) {
	t.subs = append(t.subs, fn)
}
