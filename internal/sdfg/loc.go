package sdfg

import "strings"

// Source-complexity accounting for the paper's §5.2 claim: ICON's
// dynamical core has 2728 non-empty Fortran lines of which less than 50%
// describe computation — the rest are OpenACC (20%), other directives
// (12%) and duplicated loop orderings (6%); removing them leaves ~1400
// lines.
const (
	// PaperDycoreLines is the directive-laden line count reported in §5.2.
	PaperDycoreLines = 2728
	// PaperCleanLines is the pragma-free line count reported in §5.2.
	PaperCleanLines = 1400
)

// EkinhDirectiveSource is the paper's featured z_ekinh kernel as it
// appears in the directive-annotated code base (the §5.2 listing): OpenACC
// pragmas, vendor directives and a duplicated loop ordering behind a
// preprocessor macro. Its clean form in this repo is KeVnSource.
const EkinhDirectiveSource = `!$ACC PARALLEL DEFAULT(PRESENT) ASYNC(1)
!$ACC LOOP GANG VECTOR TILE(32, 4)
#ifndef _LOOP_EXCHANGE
  DO jc = i_startidx, i_endidx
!DIR$ IVDEP
    DO jk = 1, nlev
      z_ekinh(jk,jc,jb) = &
#else
!$NEC outerloop_unroll(4)
  DO jk = 1, nlev
    DO jc = i_startidx, i_endidx
      z_ekinh(jc,jk,jb) = &
#endif
  p_int%e_bln_c_s(jc,1,jb)*z_kin_hor_e(ieidx(jc,jb,1),jk,ieblk(jc,jb,1)) + &
  p_int%e_bln_c_s(jc,2,jb)*z_kin_hor_e(ieidx(jc,jb,2),jk,ieblk(jc,jb,2)) + &
  p_int%e_bln_c_s(jc,3,jb)*z_kin_hor_e(ieidx(jc,jb,3),jk,ieblk(jc,jb,3))
    ENDDO
  ENDDO
!$ACC END PARALLEL
!$OMP END PARALLEL DO
`

// StripDirectives removes performance annotations from Fortran-style
// source, returning the "cleanest form": OpenACC (!$ACC), OpenMP (!$OMP),
// NEC (!$NEC), Cray/Intel directives (!DIR$, !DEC$), and preprocessor
// conditionals (#ifdef/#ifndef/#else/#endif/#define) including the
// duplicated loop variants — for an #ifndef block the first branch is
// kept and the #else branch dropped, matching how ICON's loop-exchange
// macros duplicate code.
func StripDirectives(src string) string {
	var out []string
	skipDepth := 0 // >0 while inside a dropped #else branch
	for _, ln := range strings.Split(src, "\n") {
		t := strings.TrimSpace(ln)
		upper := strings.ToUpper(t)
		switch {
		case strings.HasPrefix(upper, "!$ACC"),
			strings.HasPrefix(upper, "!$OMP"),
			strings.HasPrefix(upper, "!$NEC"),
			strings.HasPrefix(upper, "!DIR$"),
			strings.HasPrefix(upper, "!DEC$"),
			strings.HasPrefix(upper, "IDIR$"):
			continue
		case strings.HasPrefix(t, "#ifdef"), strings.HasPrefix(t, "#ifndef"), strings.HasPrefix(t, "#if "):
			continue
		case strings.HasPrefix(t, "#else"):
			skipDepth++
			continue
		case strings.HasPrefix(t, "#endif"):
			if skipDepth > 0 {
				skipDepth--
			}
			continue
		case strings.HasPrefix(t, "#define"), strings.HasPrefix(t, "#include"):
			continue
		}
		if skipDepth > 0 {
			continue
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n")
}

// CountLines returns the number of non-empty source lines.
func CountLines(src string) int {
	n := 0
	for _, ln := range strings.Split(src, "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

// LoCReport summarises the separation-of-concerns accounting for a source
// pair.
type LoCReport struct {
	DirectiveLines int
	CleanLines     int
}

// Ratio returns clean/directive-laden (the paper: <0.5).
func (r LoCReport) Ratio() float64 {
	if r.DirectiveLines == 0 {
		return 0
	}
	return float64(r.CleanLines) / float64(r.DirectiveLines)
}

// Report computes the LoC accounting of a directive-laden source.
func Report(dirty string) LoCReport {
	return LoCReport{
		DirectiveLines: CountLines(dirty),
		CleanLines:     CountLines(StripDirectives(dirty)),
	}
}

// PaperReport returns the paper's own dycore numbers for reference rows.
func PaperReport() LoCReport {
	return LoCReport{DirectiveLines: PaperDycoreLines, CleanLines: PaperCleanLines}
}
