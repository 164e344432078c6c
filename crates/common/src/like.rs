//! SQL `LIKE` pattern matching (`%` = any run, `_` = any single char).
//!
//! Shared by the expression evaluator (nodb-exec) and selectivity
//! estimation (nodb-stats). Matching is case-sensitive, as in PostgreSQL,
//! and runs over bytes: a literal matches byte for byte, while `_` and
//! each step of a `%` take one whole UTF-8 character.

/// Does `text` match the SQL LIKE `pattern`?
///
/// Iterative two-pointer algorithm with backtracking to the last `%`;
/// O(n·m) worst case, linear on typical patterns.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t = text.as_bytes();
    let p = pattern.as_bytes();
    // The byte length of the character that starts at `t[i]` (1 for
    // ASCII, so an ASCII text steps one byte at a time).
    let width = |i: usize| match t.get(i) {
        Some(0xF0..) => 4,
        Some(0xE0..) => 3,
        Some(0xC0..) => 2,
        _ => 1,
    };
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        match p.get(pi) {
            Some(b'_') => {
                ti += width(ti);
                pi += 1;
                continue;
            }
            Some(b'%') => {
                star = Some((pi + 1, ti));
                pi += 1;
                continue;
            }
            Some(&c) if c == t[ti] => {
                ti += 1;
                pi += 1;
                continue;
            }
            _ => {}
        }
        let Some((sp, st)) = star else {
            return false;
        };
        // Backtrack: let % absorb one more character.
        let st = st + width(st);
        (pi, ti) = (sp, st);
        star = Some((sp, st));
    }
    while p.get(pi) == Some(&b'%') {
        pi += 1;
    }
    pi == p.len()
}

/// The literal prefix of a pattern (bytes before the first wildcard),
/// useful for range-based selectivity estimation.
pub fn literal_prefix(pattern: &str) -> &str {
    match pattern.find(['%', '_']) {
        Some(i) => &pattern[..i],
        None => pattern,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_without_wildcards() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(!like_match("abc", "ab"));
        assert!(!like_match("ab", "abc"));
    }

    #[test]
    fn percent_matches_any_run() {
        assert!(like_match("PROMO BURNISHED", "PROMO%"));
        assert!(!like_match("STANDARD BURNISHED", "PROMO%"));
        assert!(like_match("abcdef", "%def"));
        assert!(like_match("abcdef", "a%f"));
        assert!(like_match("abcdef", "%cd%"));
        assert!(like_match("", "%"));
        assert!(like_match("anything", "%%"));
    }

    #[test]
    fn underscore_matches_single_char() {
        assert!(like_match("cat", "c_t"));
        assert!(!like_match("cart", "c_t"));
        assert!(like_match("cart", "c__t"));
        assert!(!like_match("", "_"));
    }

    /// `_` is one character whatever its UTF-8 width (2, 3 and 4 bytes
    /// here), and `%` never stops inside one.
    #[test]
    fn underscore_and_percent_take_whole_characters() {
        for (text, one) in [("café", "caf_"), ("5€", "5_"), ("𝄞x", "_x")] {
            assert!(like_match(text, one), "{text} like {one}");
            assert!(!like_match(text, &format!("{one}_")), "{text}");
            assert!(like_match(text, "%"), "{text}");
        }
        assert!(like_match("cafe", "caf_"));
        assert!(!like_match("café", "caf__"));
        assert!(like_match("é€𝄞", "___"));
        assert!(!like_match("é€𝄞", "____"));
        assert!(like_match("é€𝄞", "%_𝄞"));
        assert!(like_match("a€b€c", "%€c"));
        assert!(like_match("a€b€c", "a%_b%"));
    }

    #[test]
    fn mixed_wildcards_backtrack() {
        assert!(like_match("xayybzc", "%a%b%c"));
        assert!(like_match("mississippi", "%iss%pi"));
        assert!(!like_match("mississipp", "%iss%pi"));
        assert!(like_match("abab", "%ab"));
    }

    #[test]
    fn prefix_extraction() {
        assert_eq!(literal_prefix("PROMO%"), "PROMO");
        assert_eq!(literal_prefix("a_c"), "a");
        assert_eq!(literal_prefix("abc"), "abc");
        assert_eq!(literal_prefix("%x"), "");
    }
}
