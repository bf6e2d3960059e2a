package attr

import (
	"math"
	"testing"
)

// TestAppendTextMatchesString pins the text rendering of every value type,
// including the float and string edge cases that suppression identities
// are built from, and checks that AppendText and String agree.
func TestAppendTextMatchesString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int32Value(0), "0"},
		{Int32Value(-7), "-7"},
		{Int32Value(math.MaxInt32), "2147483647"},
		{Int32Value(math.MinInt32), "-2147483648"},
		{Int64Value(math.MinInt64), "-9223372036854775808"},
		{Int64Value(math.MaxInt64), "9223372036854775807"},
		{Float32Value(1.5), "1.5"},
		{Float32Value(0.1), "0.1"},
		{Float32Value(float32(math.NaN())), "NaN"},
		{Float32Value(0), "0"},
		{Float32Value(float32(math.Copysign(0, -1))), "-0"},
		{Float32Value(float32(math.Inf(-1))), "-Inf"},
		{Float64Value(0.1), "0.1"},
		{Float64Value(1e21), "1e+21"},
		{Float64Value(math.NaN()), "NaN"},
		{Float64Value(0), "0"},
		{Float64Value(math.Copysign(0, -1)), "-0"},
		{Float64Value(math.Inf(1)), "+Inf"},
		{StringValue(""), `""`},
		{StringValue("surveillance"), `"surveillance"`},
		{StringValue(`say "hi"` + "\n"), `"say \"hi\"\n"`},
		{StringValue("tab\tback\\slash"), `"tab\tback\\slash"`},
		{StringValue("é\x00\x7f"), `"é\x00\x7f"`},
		{BlobValue(nil), "0x"},
		{BlobValue([]byte{0xde, 0xad, 0xbe, 0xef}), "0x3q2+7w=="},
		{Value{Type: Type(99)}, "Value(type=99)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %s, want %s", got, c.want)
		}
		if got := string(c.v.AppendText(nil)); got != c.v.String() {
			t.Errorf("AppendText(nil) = %s, String() = %s", got, c.v.String())
		}
		if got := string(c.v.AppendText([]byte("k:"))); got != "k:"+c.want {
			t.Errorf("AppendText(prefix) = %s, want k:%s", got, c.want)
		}
	}
}
