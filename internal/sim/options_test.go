package sim

import (
	"bytes"
	"reflect"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/obs"
	"geogossip/internal/routing"
	"geogossip/internal/trace"
)

// TestWithStateCarriesEveryField sets every field of the record off its
// zero value and checks that WithState carries each one over except
// State, which it replaces. A field added to Options but left out of
// the copy fails here, as does one this literal leaves at zero.
func TestWithStateCarriesEveryField(t *testing.T) {
	spec, err := channel.Parse("bernoulli:0.1+churn:4000/1000")
	if err != nil {
		t.Fatal(err)
	}
	from, to := 1, "pooled"
	o := Options[int]{
		Stop:           StopRule{TargetErr: 1e-3, MaxTicks: 99},
		Eps:            2e-3,
		EpsDecayFactor: 3,
		Beta:           0.3,
		Convex:         true,
		Throttle:       6,
		RoundsFactor:   2.5,
		LeafTicks:      48,
		Sampling:       SamplingUniformNode,
		RecordEvery:    7,
		Faults:         spec,
		Recover:        true,
		Routes:         &routing.Cache{},
		State:          &from,
		Tracer:         &trace.Writer{W: &bytes.Buffer{}},
		Obs:            obs.NewRegistry().Scope("test"),
	}
	in := reflect.ValueOf(o)
	for i := 0; i < in.NumField(); i++ {
		if in.Field(i).IsZero() {
			t.Errorf("the test leaves field %s at its zero value", in.Type().Field(i).Name)
		}
	}
	got := WithState(o, &to)
	if got.State != &to {
		t.Errorf("State = %p, want the new state %p", got.State, &to)
	}
	out := reflect.ValueOf(got)
	for i := 0; i < in.NumField(); i++ {
		name := in.Type().Field(i).Name
		if name == "State" {
			continue
		}
		if !reflect.DeepEqual(in.Field(i).Interface(), out.FieldByName(name).Interface()) {
			t.Errorf("field %s: WithState gave %v, want %v", name, out.FieldByName(name), in.Field(i))
		}
	}
}
