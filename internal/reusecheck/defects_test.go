package reusecheck

import (
	"reflect"
	"testing"

	"reusetool/internal/lang"
)

// TestDefectCodes pins the exact diagnostic of each program-level
// defect check (oob, uninit-data, unused-param, empty-loop) and the
// conditions that keep each one silent.
func TestDefectCodes(t *testing.T) {
	const head = "program p\nparam N 8\narray A f64 [N]\n"
	cases := []struct {
		name       string
		src        string
		assumeInit bool
		code       string
		want       []Diagnostic
	}{
		{
			name: "oob",
			src: head + `routine main file p.f line 1 {
  for i = 0 .. N line 2 {
    access A[i]
  }
}
`,
			code: "oob",
			want: []Diagnostic{{File: "p.f", Line: 6, Code: "oob", Severity: SevDefect,
				Msg: "subscript 0 of A[i] spans [0,8], outside [0,7]"}},
		},
		{
			name: "oob through a Let",
			src: head + `routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    let k = i + 2
    access A[k]
  }
}
`,
			code: "oob",
			want: []Diagnostic{{File: "p.f", Line: 7, Code: "oob", Severity: SevDefect,
				Msg: "subscript 0 of A[k] spans [2,9], outside [0,7]"}},
		},
		{
			name: "oob silent when guarded",
			src: head + `routine main file p.f line 1 {
  for i = 0 .. N line 2 {
    if i < N {
      access A[i]
    }
  }
}
`,
			code: "oob",
		},
		{
			name: "oob silent in a triangular nest",
			src: head + `routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    for j = i .. N line 3 {
      access A[j]
    }
  }
}
`,
			code: "oob",
		},
		{
			name: "uninit-data",
			src: head + `dataarray idx i64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access idx[i], A[idx[i]]
  }
}
`,
			code: "uninit-data",
			want: []Diagnostic{{File: "p.f", Line: 7, Code: "uninit-data", Severity: SevDefect,
				Msg: `data array "idx" is read through load but never written or initialized`}},
		},
		{
			name: "uninit-data silent with an init declaration",
			src: head + `dataarray idx i64 [N]
init idx identity
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access idx[i], A[idx[i]]
  }
}
`,
			code: "uninit-data",
		},
		{
			name: "uninit-data silent when assumed initialized",
			src: head + `dataarray idx i64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access idx[i], A[idx[i]]
  }
}
`,
			assumeInit: true,
			code:       "uninit-data",
		},
		{
			name: "unused-param",
			src: head + `param M 3
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]
  }
}
`,
			code: "unused-param",
			want: []Diagnostic{{File: "p.loop", Line: 4, Code: "unused-param", Severity: SevDefect,
				Msg: `parameter "M" is declared but never used`}},
		},
		{
			name: "empty-loop",
			src: head + `routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]
  }
  let m = N
  for j = m .. 2 line 6 {
    access A[j]
  }
}
`,
			code: "empty-loop",
			want: []Diagnostic{{File: "p.f", Line: 6, Code: "empty-loop", Severity: SevDefect,
				Msg: "loop j from N to 2 by 1 never executes"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, _, meta, err := lang.ParseFile("p.loop", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			info, err := prog.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			got := find(Check(info, Options{
				Initialized:       meta.Inited,
				AssumeInitialized: tc.assumeInit,
				ParamLines:        meta.ParamLines,
				File:              "p.loop",
			}), tc.code)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s diagnostics:\n got %+v\nwant %+v", tc.code, got, tc.want)
			}
		})
	}
}
