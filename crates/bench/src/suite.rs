//! The benchmark suite: JTS ports of the 26 SunSpider programs the paper
//! evaluates (Figures 10–12), plus the paper's Figure 1 sieve.
//!
//! Ports preserve each program's computational kernel. The paper reports
//! three benchmarks as never tracing (they depend on regexps/`eval`):
//! `regexp-dna` keeps that class — its hot loop formats an opaque match
//! record, and object→string coercion is outside this tracer's subset.
//! The two `date-format` ports substituted string→number coercion, which
//! the recorder now traces through the `StrToNum` fast path, so they are
//! traceable here (deliberately: the coverage gate requires every
//! non-flagged group to reach the JIT). See DESIGN.md for the
//! substitution table.

/// One benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct BenchProgram {
    /// SunSpider program name.
    pub name: &'static str,
    /// SunSpider category.
    pub group: &'static str,
    /// JTS source.
    pub source: &'static str,
    /// Whether the port is untraceable by design (the paper's
    /// interpreter-only programs).
    pub untraceable: bool,
}

macro_rules! prog {
    ($name:literal, $group:literal, $file:literal) => {
        BenchProgram {
            name: $name,
            group: $group,
            source: include_str!(concat!("../suite/", $file)),
            untraceable: false,
        }
    };
    ($name:literal, $group:literal, $file:literal, untraceable) => {
        BenchProgram {
            name: $name,
            group: $group,
            source: include_str!(concat!("../suite/", $file)),
            untraceable: true,
        }
    };
}

/// The full 26-program SunSpider suite (paper order: 3d, access, bitops,
/// controlflow, crypto, date, math, regexp, string).
pub const SUITE: &[BenchProgram] = &[
    prog!("3d-cube", "3d", "3d-cube.js"),
    prog!("3d-morph", "3d", "3d-morph.js"),
    prog!("3d-raytrace", "3d", "3d-raytrace.js"),
    prog!("access-binary-trees", "access", "access-binary-trees.js"),
    prog!("access-fannkuch", "access", "access-fannkuch.js"),
    prog!("access-nbody", "access", "access-nbody.js"),
    prog!("access-nsieve", "access", "access-nsieve.js"),
    prog!("bitops-3bit-bits-in-byte", "bitops", "bitops-3bit-bits-in-byte.js"),
    prog!("bitops-bits-in-byte", "bitops", "bitops-bits-in-byte.js"),
    prog!("bitops-bitwise-and", "bitops", "bitops-bitwise-and.js"),
    prog!("bitops-nsieve-bits", "bitops", "bitops-nsieve-bits.js"),
    prog!("controlflow-recursive", "controlflow", "controlflow-recursive.js"),
    prog!("crypto-aes", "crypto", "crypto-aes.js"),
    prog!("crypto-md5", "crypto", "crypto-md5.js"),
    prog!("crypto-sha1", "crypto", "crypto-sha1.js"),
    prog!("date-format-tofte", "date", "date-format-tofte.js"),
    prog!("date-format-xparb", "date", "date-format-xparb.js"),
    prog!("math-cordic", "math", "math-cordic.js"),
    prog!("math-partial-sums", "math", "math-partial-sums.js"),
    prog!("math-spectral-norm", "math", "math-spectral-norm.js"),
    prog!("regexp-dna", "regexp", "regexp-dna.js", untraceable),
    prog!("string-base64", "string", "string-base64.js"),
    prog!("string-fasta", "string", "string-fasta.js"),
    prog!("string-tagcloud", "string", "string-tagcloud.js"),
    prog!("string-unpack-code", "string", "string-unpack-code.js"),
    prog!("string-validate-input", "string", "string-validate-input.js"),
];

/// The paper's Figure 1 sieve, scaled up (used by examples and tests).
pub const SIEVE: BenchProgram = BenchProgram {
    name: "sieve",
    group: "extra",
    source: include_str!("../suite/extra-sieve.js"),
    untraceable: false,
};

/// Looks up a program by name.
pub fn by_name(name: &str) -> Option<&'static BenchProgram> {
    SUITE.iter().find(|p| p.name == name)
}

/// Request programs for the multi-tenant configurations: each is one
/// small, deterministic server request, so every realm and every
/// repetition must agree. `straightline` has no loop to trace and so no
/// code to share.
pub const TENANT_REQUESTS: &[BenchProgram] = &[
    request("arith-loop", "var s = 0; for (var i = 0; i < 2000; i++) s += i * 3 - (i >> 1); s"),
    request(
        "branchy",
        "var s = 0; for (var i = 0; i < 1500; i++) { if (i % 3 == 0) s += i * 2; else s -= i; } s",
    ),
    request(
        "objects",
        "var p = { x: 0, y: 0 }; \
         for (var i = 0; i < 1200; i++) { p.x += i; p.y = p.x - i; } p.x + p.y",
    ),
    request(
        "strings",
        "var s = ''; var n = 0; \
         for (var i = 0; i < 600; i++) { s = 'ab' + s.substring(0, 6); n += s.length; } n",
    ),
    BenchProgram {
        untraceable: true,
        ..request("straightline", "var a = 1; var b = a + 41; var c = b * 2 - 42; c")
    },
];

const fn request(name: &'static str, source: &'static str) -> BenchProgram {
    BenchProgram { name, group: "tenant", source, untraceable: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_26_programs_like_sunspider() {
        assert_eq!(SUITE.len(), 26);
        assert_eq!(SUITE.iter().filter(|p| p.untraceable).count(), 1);
        assert!(by_name("bitops-bitwise-and").is_some());
        assert!(by_name("nope").is_none());
    }
}
