//! A recursive-descent item parser over the [`crate::lexer`] token stream.
//!
//! The token-sequence rules (d1–d5) answer "does this *line* mention a
//! nondeterministic primitive?". The analysis passes (d6–d9) need more:
//! which *function* mentions it, who calls that function, and whether
//! a `Machine` impl takes `&mut` anywhere. This module recovers
//! exactly that structure — items, impl blocks with their trait and self
//! type, fn signatures with receiver/`&mut`-param shapes, and fn bodies
//! reduced to an *expression skeleton* (paths, calls, method calls,
//! `self.field` accesses) — without pulling in a real Rust frontend,
//! because the build environment is offline.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never reject.** Source that confuses the parser is
//!    skipped one token at a time until something recognizable appears;
//!    a hostile file degrades coverage, not the build.
//! 2. **Over-approximate bodies.** The skeleton scan walks *through*
//!    macro invocations, closures, and match arms rather than modelling
//!    them, so every path and call in a handler is attributed to the
//!    enclosing fn. d6 soundness rests on this (see `passes`).
//! 3. **Survive the classic traps.** `>>` closing two generic levels
//!    (the lexer already splits puncts, so each `>` is its own token),
//!    `->` / `=>` inside angle brackets, const-generic `{ … }` blocks,
//!    raw/byte strings (opaque [`Tok::Str`] tokens), `macro_rules!`
//!    definitions (skipped wholesale — pattern soup), lifetimes vs char
//!    literals (disambiguated by the lexer), and nested fns/impls inside
//!    bodies (parsed as first-class items).

use crate::lexer::{Tok, Token};

/// How a fn takes `self`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// Free function — no `self` parameter.
    None,
    /// `self` or `mut self` (by value).
    Value,
    /// `&self` (shared borrow).
    Ref,
    /// `&mut self` (exclusive borrow) — what d8 polices.
    RefMut,
}

/// One non-receiver parameter of a fn signature.
#[derive(Clone, Debug)]
pub struct Param {
    /// The binding name (first identifier of the pattern; `_` included).
    pub name: String,
    /// The declared type, rendered as space-joined tokens
    /// (e.g. `& mut Vec < Self :: Action >`).
    pub ty: String,
    /// Whether the type is an exclusive borrow (`&mut T` / `&'a mut T`).
    pub by_mut_ref: bool,
}

/// The impl block (or trait declaration) a fn was found in.
#[derive(Clone, Debug)]
pub struct Owner {
    /// `Some("Protocol")` for `impl Protocol for Foo`, `None` for
    /// inherent impls (`impl Foo`). For fns inside `trait T { … }`
    /// declarations this is `Some(T)` with [`Owner::self_ty`] = `Self`.
    pub trait_name: Option<String>,
    /// Last path segment of the implementing type, generics stripped
    /// (`RegisterOmegaConsensus` for `impl … for RegisterOmegaConsensus<V>`).
    pub self_ty: String,
}

/// A call recorded by the body skeleton scan.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Path segments: `["Instant", "now"]` for `Instant::now()`,
    /// `["advance"]` for `.advance(…)` or `advance(…)`.
    pub path: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// For method calls, the receiver when it is a plain identifier
    /// (`Some("ctx")` in `ctx.send(…)`); `None` for chained receivers.
    pub receiver: Option<String>,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// 1-based source column of the callee name.
    pub col: u32,
}

/// A non-call path mention in a body (`let m: HashMap<_, _>`,
/// `SystemTime::UNIX_EPOCH` in const position, …). Single-segment
/// lowercase identifiers (locals) are not recorded.
#[derive(Clone, Debug)]
pub struct PathUse {
    /// Path segments.
    pub path: Vec<String>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// A `self.field` access in a body.
#[derive(Clone, Debug)]
pub struct FieldAccess {
    /// Field name.
    pub name: String,
    /// True when the access is the target of `=` or a compound
    /// assignment operator.
    pub write: bool,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// One parsed fn — signature plus body skeleton.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The fn's name.
    pub name: String,
    /// Enclosing impl block or trait declaration, if any.
    pub owner: Option<Owner>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// True when the fn (or an enclosing item) is under `#[cfg(test)]`
    /// or is itself a `#[test]`.
    pub in_test: bool,
    /// How the fn takes `self`.
    pub receiver: Receiver,
    /// Non-receiver parameters.
    pub params: Vec<Param>,
    /// False for trait-method declarations ending in `;`.
    pub has_body: bool,
    /// First line of the body block (the `{`), 0 when no body.
    pub body_start_line: u32,
    /// Last line of the body block (the `}`), 0 when no body.
    pub body_end_line: u32,
    /// Calls found in the body (closures and macro arguments included).
    pub calls: Vec<CallSite>,
    /// Non-call path mentions found in the body.
    pub paths: Vec<PathUse>,
    /// `self.field` accesses found in the body.
    pub self_fields: Vec<FieldAccess>,
}

/// A `#[deprecated]` attribute found on an item.
#[derive(Clone, Debug)]
pub struct DeprecatedItem {
    /// Name of the item the attribute precedes (best-effort: the first
    /// non-keyword identifier after the attribute).
    pub item: String,
    /// The `since = "x.y.z"` value, when present.
    pub since: Option<String>,
    /// 1-based line of the attribute's `#`.
    pub line: u32,
    /// 1-based column of the attribute's `#`.
    pub col: u32,
    /// True when the item is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Everything the parser recovered from one source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// All fns, flattened — nested fns and fns in body-local impl
    /// blocks appear as ordinary entries.
    pub fns: Vec<FnDef>,
    /// All `#[deprecated]` attributes on items.
    pub deprecations: Vec<DeprecatedItem>,
}

/// Parse a lexed token stream into its item/fn skeleton.
///
/// Comments are filtered out first (suppressions are handled by
/// [`crate::suppress`] on the raw stream). The parser never fails:
/// unrecognized constructs are skipped token by token.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let code: Vec<Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, Tok::Comment(_)))
        .cloned()
        .collect();
    let mut p = Parser {
        toks: code,
        i: 0,
        out: ParsedFile::default(),
    };
    p.parse_scope(false, None, true);
    p.out
}

/// Keywords that cannot start a value path in expression position.
const NON_PATH_KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "union", "unsafe", "use", "where", "while",
];

struct Parser {
    toks: Vec<Token>,
    i: usize,
    out: ParsedFile,
}

impl Parser {
    fn peek(&self, ahead: usize) -> Option<&Token> {
        self.toks.get(self.i + ahead)
    }

    fn ident_at(&self, ahead: usize) -> Option<&str> {
        match self.peek(ahead).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, ahead: usize) -> Option<char> {
        match self.peek(ahead).map(|t| &t.kind) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn at_eof(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    /// True when tokens at `i+ahead` and `i+ahead+1` are glued in the
    /// source (no whitespace between) — distinguishes `::` from `: :`,
    /// `->` from `- >`, `==` from `= =`.
    fn joined(&self, ahead: usize) -> bool {
        match (self.peek(ahead), self.peek(ahead + 1)) {
            (Some(a), Some(b)) => a.line == b.line && a.col + 1 == b.col,
            _ => false,
        }
    }

    /// `::` starting at `i+ahead`.
    fn path_sep_at(&self, ahead: usize) -> bool {
        self.punct_at(ahead) == Some(':')
            && self.punct_at(ahead + 1) == Some(':')
            && self.joined(ahead)
    }

    /// Skip one balanced delimiter group whose opener (`(`/`[`/`{`) is
    /// the current token; all three kinds are tracked so mixed nesting
    /// works. If the current token is not an opener, skips one token.
    fn skip_balanced(&mut self) {
        let mut depth = 0usize;
        loop {
            let Some(c) = self
                .punct_at(0)
                .or(if self.at_eof() { None } else { Some('\0') })
            else {
                return;
            };
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                    continue;
                }
                _ => {}
            }
            self.bump();
            if depth == 0 {
                return; // first token was not an opener
            }
        }
    }

    /// Skip a balanced `<…>` group; the current token must be `<`.
    /// `->` and `=>` never close an angle level (`Box<dyn Fn() -> T>`),
    /// const-generic `{ … }` blocks and parenthesized types are skipped
    /// opaquely so expression operators inside them cannot desync the
    /// angle depth. `>>` needs no special case: the lexer splits puncts,
    /// so it arrives as two `>` tokens closing two levels.
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.punct_at(0) {
                None if self.at_eof() => return,
                Some('<') => {
                    depth += 1;
                    self.bump();
                }
                Some('-') | Some('=') => {
                    // Consume `->` / `=>` atomically so the `>` is not
                    // mistaken for a closer.
                    if self.punct_at(1) == Some('>') && self.joined(0) {
                        self.bump();
                    }
                    self.bump();
                }
                Some('>') => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                Some('(') | Some('[') | Some('{') => self.skip_balanced(),
                _ => self.bump(),
            }
        }
    }

    /// Skip to the next `;` at top delimiter depth (for `use`, `const`,
    /// `static`, `type` items), consuming it. Balanced groups on the
    /// way — including initializer blocks like `= if c { 1 } else { 2 }`
    /// — are skipped opaquely. Stops (without consuming) at a stray `}`
    /// so an unbalanced item cannot eat its enclosing scope.
    fn skip_to_semi(&mut self) {
        loop {
            match self.punct_at(0) {
                None if self.at_eof() => return,
                Some(';') => {
                    self.bump();
                    return;
                }
                Some('(') | Some('[') | Some('{') => self.skip_balanced(),
                Some('}') => return,
                _ => self.bump(),
            }
        }
    }

    /// Skip tokens until a `{` that opens an item body (not consumed),
    /// stepping over generic argument lists and balanced groups so
    /// `->`/`=>` and const-generic braces inside generics or
    /// where-clauses don't end the search early. Also stops at `;` and
    /// `}` (not consumed) and EOF.
    fn skip_to_body_open(&mut self) {
        loop {
            match self.punct_at(0) {
                None if self.at_eof() => return,
                Some('{') | Some(';') | Some('}') => return,
                Some('<') => self.skip_angles(),
                Some('(') | Some('[') => self.skip_balanced(),
                _ => self.bump(),
            }
        }
    }

    /// Parse items until the scope's closing `}` (consumed) or EOF.
    /// `top` scopes run to EOF and treat stray `}` as garbage to skip.
    fn parse_scope(&mut self, in_test: bool, owner: Option<&Owner>, top: bool) {
        loop {
            // Attribute prefix: `#[…]` and inner `#![…]`.
            let mut item_test = in_test;
            let mut dep: Option<(Option<String>, u32, u32)> = None;
            loop {
                match self.peek(0).map(|t| (t.kind.clone(), t.line, t.col)) {
                    None => return,
                    Some((Tok::Punct('}'), _, _)) => {
                        self.bump();
                        if top {
                            continue; // stray closer at top level
                        }
                        return;
                    }
                    Some((Tok::Punct('#'), line, col)) => {
                        let (is_test, is_dep, since) = self.parse_attr();
                        item_test |= is_test;
                        if is_dep {
                            dep = Some((since, line, col));
                        }
                    }
                    _ => break,
                }
            }

            if let Some((since, line, col)) = dep {
                let item = self.lookahead_item_name();
                self.out.deprecations.push(DeprecatedItem {
                    item,
                    since,
                    line,
                    col,
                    in_test: item_test,
                });
            }

            // Visibility and qualifiers.
            if self.ident_at(0) == Some("pub") {
                self.bump();
                if self.punct_at(0) == Some('(') {
                    self.skip_balanced();
                }
            }
            while let Some(q) = self.ident_at(0) {
                match q {
                    "default" | "async" | "unsafe" => self.bump(),
                    "const" if self.ident_at(1) == Some("fn") => self.bump(),
                    "extern"
                        if matches!(self.peek(1).map(|t| &t.kind), Some(Tok::Str(_)))
                            && self.ident_at(2) == Some("fn") =>
                    {
                        self.bump();
                        self.bump();
                    }
                    _ => break,
                }
            }

            match self.ident_at(0) {
                Some("fn") => {
                    if let Some(f) = self.parse_fn(item_test, owner) {
                        self.out.fns.push(f);
                    }
                }
                Some("impl") => self.parse_impl(item_test),
                Some("mod") => {
                    self.bump();
                    if self.ident_at(0).is_some() {
                        self.bump();
                    }
                    match self.punct_at(0) {
                        Some('{') => {
                            self.bump();
                            self.parse_scope(item_test, None, false);
                        }
                        Some(';') => self.bump(),
                        _ => {}
                    }
                }
                Some("trait") => {
                    self.bump();
                    let name = self.ident_at(0).unwrap_or("").to_string();
                    if !name.is_empty() {
                        self.bump();
                    }
                    self.skip_to_body_open();
                    if self.punct_at(0) == Some('{') {
                        self.bump();
                        let owner = Owner {
                            trait_name: Some(name),
                            self_ty: "Self".to_string(),
                        };
                        self.parse_scope(item_test, Some(&owner), false);
                    } else if self.punct_at(0) == Some(';') {
                        self.bump(); // trait alias
                    }
                }
                Some("struct") | Some("enum") | Some("union") => self.skip_struct_like(),
                Some("macro_rules") => self.skip_macro_rules(),
                Some("extern") => {
                    // `extern crate x;` or `extern "C" { … }`.
                    self.bump();
                    if matches!(self.peek(0).map(|t| &t.kind), Some(Tok::Str(_))) {
                        self.bump();
                    }
                    match self.punct_at(0) {
                        Some('{') => self.skip_balanced(),
                        _ => self.skip_to_semi(),
                    }
                }
                Some("use") | Some("static") | Some("type") | Some("const") => {
                    self.bump();
                    self.skip_to_semi();
                }
                _ => {
                    // Unrecognized — skip one token and resync.
                    if self.at_eof() {
                        return;
                    }
                    self.bump();
                }
            }
        }
    }

    /// Skip a `struct`/`enum`/`union` item; current token is the keyword.
    fn skip_struct_like(&mut self) {
        self.bump();
        if self.ident_at(0).is_some() {
            self.bump();
        }
        if self.punct_at(0) == Some('<') {
            self.skip_angles();
        }
        self.skip_to_body_open();
        match self.punct_at(0) {
            Some('{') => self.skip_balanced(),
            Some('(') => {
                self.skip_balanced();
                self.skip_to_semi();
            }
            Some(';') => self.bump(),
            _ => {}
        }
    }

    /// Skip a `macro_rules! name { … }` definition wholesale; the body
    /// is matcher/transcriber pattern soup that must not be scanned as
    /// expressions. Current token is `macro_rules`.
    fn skip_macro_rules(&mut self) {
        self.bump();
        if self.punct_at(0) == Some('!') {
            self.bump();
        }
        if self.ident_at(0).is_some() {
            self.bump();
        }
        if matches!(self.punct_at(0), Some('{') | Some('(') | Some('[')) {
            self.skip_balanced();
        }
    }

    /// Parse one `#[…]` / `#![…]` attribute; current token is `#`.
    /// Returns (marks-test-region, is-deprecated, deprecated-since).
    fn parse_attr(&mut self) -> (bool, bool, Option<String>) {
        self.bump(); // '#'
        if self.punct_at(0) == Some('!') {
            self.bump();
        }
        if self.punct_at(0) != Some('[') {
            return (false, false, None);
        }
        let start = self.i;
        self.skip_balanced();
        let toks = &self.toks[start..self.i];
        let first_ident = toks.iter().find_map(|t| match &t.kind {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        });
        match first_ident {
            Some("cfg") => {
                let is_test = toks
                    .iter()
                    .any(|t| matches!(&t.kind, Tok::Ident(s) if s == "test"));
                (is_test, false, None)
            }
            Some("test") => (true, false, None),
            Some("deprecated") => {
                let mut since = None;
                for window in toks.windows(3) {
                    if let [a, b, c] = window {
                        if matches!(&a.kind, Tok::Ident(s) if s == "since")
                            && b.kind == Tok::Punct('=')
                        {
                            if let Tok::Str(v) = &c.kind {
                                since = Some(v.clone());
                            }
                        }
                    }
                }
                (false, true, since)
            }
            _ => (false, false, None),
        }
    }

    /// Best-effort name of the item that follows the current position:
    /// the first identifier that is not a keyword/qualifier.
    fn lookahead_item_name(&self) -> String {
        const SKIP: &[&str] = &[
            "pub",
            "crate",
            "default",
            "const",
            "async",
            "unsafe",
            "extern",
            "fn",
            "impl",
            "mod",
            "trait",
            "struct",
            "enum",
            "union",
            "use",
            "static",
            "type",
            "macro_rules",
            "in",
            "self",
            "super",
        ];
        for ahead in 0..24 {
            match self.peek(ahead).map(|t| &t.kind) {
                None => break,
                Some(Tok::Ident(s)) if !SKIP.contains(&s.as_str()) => return s.clone(),
                _ => {}
            }
        }
        String::new()
    }

    /// Read a type path: `seg(::seg)*`, skipping leading sigils
    /// (`&`, `mut`, lifetimes, `dyn`, a leading `::`) and `<…>` generic
    /// argument lists. Returns the segments.
    fn read_type_path(&mut self) -> Vec<String> {
        let mut segs = Vec::new();
        loop {
            match self.peek(0).map(|t| &t.kind) {
                Some(Tok::Punct('&')) | Some(Tok::Punct('*')) | Some(Tok::Lifetime) => self.bump(),
                Some(Tok::Ident(s)) if s == "mut" || s == "dyn" => self.bump(),
                Some(Tok::Punct(':')) if self.path_sep_at(0) => {
                    self.bump();
                    self.bump();
                }
                _ => break,
            }
        }
        while let Some(Tok::Ident(s)) = self.peek(0).map(|t| &t.kind) {
            segs.push(s.clone());
            self.bump();
            if self.punct_at(0) == Some('<') {
                self.skip_angles();
            }
            if self.path_sep_at(0) {
                self.bump();
                self.bump();
            } else {
                break;
            }
        }
        segs
    }

    /// Parse an `impl` block; current token is the `impl` keyword.
    fn parse_impl(&mut self, in_test: bool) {
        self.bump(); // impl
        if self.punct_at(0) == Some('<') {
            self.skip_angles();
        }
        if self.punct_at(0) == Some('!') {
            self.bump(); // negative impl
        }
        let first = self.read_type_path();
        let owner = if self.ident_at(0) == Some("for") {
            self.bump();
            if self.punct_at(0) == Some('!') {
                self.bump();
            }
            let second = self.read_type_path();
            Owner {
                trait_name: first.last().cloned(),
                self_ty: second.last().cloned().unwrap_or_default(),
            }
        } else {
            Owner {
                trait_name: None,
                self_ty: first.last().cloned().unwrap_or_default(),
            }
        };
        self.skip_to_body_open();
        match self.punct_at(0) {
            Some('{') => {
                self.bump();
                self.parse_scope(in_test, Some(&owner), false);
            }
            Some(';') => self.bump(),
            _ => {}
        }
    }

    /// Parse a fn; current token is the `fn` keyword.
    fn parse_fn(&mut self, in_test: bool, owner: Option<&Owner>) -> Option<FnDef> {
        let (line, col) = self.peek(0).map(|t| (t.line, t.col))?;
        self.bump(); // fn
        let name = match self.ident_at(0) {
            Some(n) => {
                let n = n.to_string();
                self.bump();
                n
            }
            // `fn` not followed by a name: fn-pointer type or garbage.
            None => return None,
        };
        if self.punct_at(0) == Some('<') {
            self.skip_angles();
        }
        let mut def = FnDef {
            name,
            owner: owner.cloned(),
            line,
            col,
            in_test,
            receiver: Receiver::None,
            params: Vec::new(),
            has_body: false,
            body_start_line: 0,
            body_end_line: 0,
            calls: Vec::new(),
            paths: Vec::new(),
            self_fields: Vec::new(),
        };
        if self.punct_at(0) == Some('(') {
            self.parse_params(&mut def);
        }
        // Return type and where clause.
        self.skip_to_body_open();
        match self.punct_at(0) {
            Some('{') => {
                def.has_body = true;
                def.body_start_line = self.peek(0).map(|t| t.line).unwrap_or(0);
                self.bump();
                self.parse_body(&mut def, in_test);
            }
            Some(';') => self.bump(),
            _ => {}
        }
        Some(def)
    }

    /// Parse a parameter list; current token is `(`.
    fn parse_params(&mut self, def: &mut FnDef) {
        self.bump(); // '('
        let mut chunk: Vec<Token> = Vec::new();
        let mut paren = 1usize;
        let mut angle = 0usize;
        let mut square = 0usize;
        let mut brace = 0usize;
        while let Some(tok) = self.peek(0).cloned() {
            match tok.kind {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => {
                    paren -= 1;
                    if paren == 0 {
                        self.bump();
                        break;
                    }
                }
                Tok::Punct('[') => square += 1,
                Tok::Punct(']') => square = square.saturating_sub(1),
                Tok::Punct('{') => brace += 1,
                Tok::Punct('}') => {
                    if brace == 0 {
                        break; // unbalanced: bail, leave `}` for the scope
                    }
                    brace -= 1;
                }
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => {
                    // `->` inside `impl Fn(…) -> T` params never closes.
                    let prev_joins = chunk.last().is_some_and(|p| {
                        matches!(p.kind, Tok::Punct('-') | Tok::Punct('='))
                            && p.line == tok.line
                            && p.col + 1 == tok.col
                    });
                    if !prev_joins {
                        angle = angle.saturating_sub(1);
                    }
                }
                Tok::Punct(',') if paren == 1 && angle == 0 && square == 0 && brace == 0 => {
                    finish_param(&chunk, def);
                    chunk.clear();
                    self.bump();
                    continue;
                }
                _ => {}
            }
            chunk.push(tok);
            self.bump();
        }
        finish_param(&chunk, def);
    }

    /// Scan a fn body as an expression skeleton; current position is
    /// just past the opening `{`. Consumes through the matching `}`.
    fn parse_body(&mut self, def: &mut FnDef, in_test: bool) {
        let mut depth = 1usize;
        loop {
            let Some(tok) = self.peek(0).cloned() else {
                return;
            };
            match &tok.kind {
                Tok::Punct('{') => {
                    depth += 1;
                    self.bump();
                }
                Tok::Punct('}') => {
                    depth -= 1;
                    def.body_end_line = tok.line;
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                Tok::Punct('#') if self.punct_at(1) == Some('[') => {
                    self.bump();
                    self.skip_balanced();
                }
                Tok::Punct('#')
                    if self.punct_at(1) == Some('!') && self.punct_at(2) == Some('[') =>
                {
                    self.bump();
                    self.bump();
                    self.skip_balanced();
                }
                Tok::Punct('.') => self.scan_dot(def),
                Tok::Ident(kw) if kw == "fn" && self.ident_at(1).is_some() => {
                    if let Some(f) = self.parse_fn(in_test, None) {
                        self.out.fns.push(f);
                    }
                }
                Tok::Ident(kw)
                    if kw == "impl"
                        && (self.ident_at(1).is_some() || self.punct_at(1) == Some('<')) =>
                {
                    self.parse_impl(in_test);
                }
                Tok::Ident(kw) if kw == "macro_rules" && self.punct_at(1) == Some('!') => {
                    self.skip_macro_rules();
                }
                Tok::Ident(kw) if kw == "trait" && self.ident_at(1).is_some() => {
                    self.bump();
                    let name = self.ident_at(0).unwrap_or("").to_string();
                    self.bump();
                    self.skip_to_body_open();
                    if self.punct_at(0) == Some('{') {
                        self.bump();
                        let owner = Owner {
                            trait_name: Some(name),
                            self_ty: "Self".to_string(),
                        };
                        self.parse_scope(in_test, Some(&owner), false);
                    }
                }
                Tok::Ident(kw) if kw == "mod" && self.ident_at(1).is_some() => {
                    self.bump();
                    self.bump();
                    if self.punct_at(0) == Some('{') {
                        self.bump();
                        self.parse_scope(in_test, None, false);
                    }
                }
                Tok::Ident(kw)
                    if (kw == "struct" || kw == "enum" || kw == "union")
                        && self.ident_at(1).is_some() =>
                {
                    self.skip_struct_like();
                }
                Tok::Ident(s) if !NON_PATH_KEYWORDS.contains(&s.as_str()) => {
                    self.scan_path_expr(def);
                }
                _ => self.bump(),
            }
        }
    }

    /// Scan `.name`, `.name(…)`, `.name::<T>(…)`, `.await`, `.0` at the
    /// current `.` token.
    fn scan_dot(&mut self, def: &mut FnDef) {
        let receiver = match self.i.checked_sub(1).and_then(|p| self.toks.get(p)) {
            Some(Token {
                kind: Tok::Ident(s),
                ..
            }) => Some(s.clone()),
            _ => None,
        };
        self.bump(); // '.'
        let Some(Token {
            kind: Tok::Ident(name),
            line,
            col,
        }) = self.peek(0).cloned()
        else {
            return; // `.0` tuple index, `..` range, float — nothing to do
        };
        if name == "await" {
            self.bump();
            return;
        }
        self.bump();
        // Turbofish on the method: `.collect::<Vec<_>>()`.
        if self.path_sep_at(0) {
            self.bump();
            self.bump();
            if self.punct_at(0) == Some('<') {
                self.skip_angles();
            }
        }
        if self.punct_at(0) == Some('(') {
            def.calls.push(CallSite {
                path: vec![name],
                method: true,
                receiver,
                line,
                col,
            });
        } else if receiver.as_deref() == Some("self") {
            def.self_fields.push(FieldAccess {
                name,
                write: self.assignment_follows(),
                line,
                col,
            });
        }
    }

    /// Does an assignment operator start at the current position?
    /// Detects `=` (not `==`/`=>`), compound `op=`, and `<<=`/`>>=`.
    fn assignment_follows(&self) -> bool {
        match self.punct_at(0) {
            Some('=') => !(self.joined(0) && matches!(self.punct_at(1), Some('=') | Some('>'))),
            Some(c) if "+-*/%&|^".contains(c) => self.punct_at(1) == Some('=') && self.joined(0),
            Some('<') | Some('>') => {
                self.punct_at(1) == self.punct_at(0)
                    && self.punct_at(2) == Some('=')
                    && self.joined(0)
                    && self.joined(1)
            }
            _ => false,
        }
    }

    /// Scan a path expression starting at the current identifier:
    /// `seg(::seg)*(::<T>)?` then `(` → call, `!` + delimiter → macro
    /// invocation (interior scanned by the main loop), else a path use.
    fn scan_path_expr(&mut self, def: &mut FnDef) {
        let prev_is_colon = self
            .i
            .checked_sub(1)
            .and_then(|p| self.toks.get(p))
            .is_some_and(|t| t.kind == Tok::Punct(':'));
        let Some(Token {
            kind: Tok::Ident(first),
            line,
            col,
        }) = self.peek(0).cloned()
        else {
            self.bump();
            return;
        };
        let mut path = vec![first];
        self.bump();
        loop {
            if !self.path_sep_at(0) {
                break;
            }
            self.bump();
            self.bump();
            if self.punct_at(0) == Some('<') {
                // Turbofish: `Vec::<u64>::new`.
                self.skip_angles();
                if !self.path_sep_at(0) {
                    break;
                }
                self.bump();
                self.bump();
            }
            match self.ident_at(0) {
                Some(seg) => {
                    path.push(seg.to_string());
                    self.bump();
                }
                None => break,
            }
        }
        // `name!` + delimiter → macro invocation; interior tokens are
        // scanned by the caller's main loop so calls inside macro
        // arguments are still attributed here. `name !=` is the
        // not-equals operator, not a macro.
        if self.punct_at(0) == Some('!')
            && !(self.joined(0) && self.punct_at(1) == Some('='))
            && matches!(self.punct_at(1), Some('(') | Some('[') | Some('{'))
        {
            self.bump();
            return;
        }
        // `let m: HashMap<u32, u32> = …` — a `<` directly after a path
        // in type-ascription position opens generics. Everywhere else
        // (`if N < limit`) it is a comparison and must not be skipped.
        if self.punct_at(0) == Some('<') && prev_is_colon {
            self.skip_angles();
        }
        if self.punct_at(0) == Some('(') {
            def.calls.push(CallSite {
                path,
                method: false,
                receiver: None,
                line,
                col,
            });
        } else if path.len() > 1 || path[0].chars().next().is_some_and(|c| c.is_uppercase()) {
            def.paths.push(PathUse { path, line, col });
        }
    }
}

/// Classify one comma-separated parameter chunk into the fn's receiver
/// or parameter list.
fn finish_param(chunk: &[Token], def: &mut FnDef) {
    if chunk.is_empty() {
        return;
    }
    // Receiver forms: `self`, `mut self`, `&self`, `&'a self`,
    // `&mut self`, `&'a mut self`, `self: …`.
    let head: Vec<&Tok> = chunk
        .iter()
        .map(|t| &t.kind)
        .filter(|k| !matches!(k, Tok::Lifetime))
        .collect();
    let is_self_ident = |k: &&Tok| matches!(k, Tok::Ident(s) if s == "self");
    if head.first().is_some_and(is_self_ident)
        || (head.first() == Some(&&Tok::Punct('&')) && head.get(1).is_some_and(is_self_ident))
        || (head.first() == Some(&&Tok::Punct('&'))
            && matches!(head.get(1), Some(Tok::Ident(s)) if *s == "mut")
            && head.get(2).is_some_and(is_self_ident))
        || (matches!(head.first(), Some(Tok::Ident(s)) if *s == "mut")
            && head.get(1).is_some_and(is_self_ident))
    {
        let borrowed = head.first() == Some(&&Tok::Punct('&'));
        let has_mut = head
            .iter()
            .take(3)
            .any(|k| matches!(k, Tok::Ident(s) if *s == "mut"));
        def.receiver = match (borrowed, has_mut) {
            (true, true) => Receiver::RefMut,
            (true, false) => Receiver::Ref,
            (false, _) => Receiver::Value,
        };
        return;
    }
    // Ordinary param: pattern `:` type. The annotation colon is the
    // first `:` that is not half of a `::`.
    let mut colon_pos = None;
    for (j, t) in chunk.iter().enumerate() {
        if t.kind != Tok::Punct(':') {
            continue;
        }
        let next_joins = chunk
            .get(j + 1)
            .is_some_and(|n| n.kind == Tok::Punct(':') && t.line == n.line && t.col + 1 == n.col);
        let prev_joins = j > 0
            && chunk.get(j - 1).is_some_and(|p| {
                p.kind == Tok::Punct(':') && p.line == t.line && p.col + 1 == t.col
            });
        if !next_joins && !prev_joins {
            colon_pos = Some(j);
            break;
        }
    }
    let name = chunk
        .iter()
        .take(colon_pos.unwrap_or(chunk.len()))
        .find_map(|t| match &t.kind {
            Tok::Ident(s) if s != "mut" && s != "ref" => Some(s.clone()),
            Tok::Punct('_') => Some("_".to_string()),
            _ => None,
        })
        .unwrap_or_default();
    let ty_toks: &[Token] = match colon_pos {
        Some(p) => &chunk[p + 1..],
        None => &[],
    };
    let ty = ty_toks.iter().map(token_text).collect::<Vec<_>>().join(" ");
    let by_mut_ref = {
        let sig: Vec<&Tok> = ty_toks
            .iter()
            .map(|t| &t.kind)
            .filter(|k| !matches!(k, Tok::Lifetime))
            .collect();
        sig.first() == Some(&&Tok::Punct('&'))
            && matches!(sig.get(1), Some(Tok::Ident(s)) if *s == "mut")
    };
    def.params.push(Param {
        name,
        ty,
        by_mut_ref,
    });
}

/// Render one token for display in parameter types.
fn token_text(t: &Token) -> String {
    match &t.kind {
        Tok::Ident(s) => s.clone(),
        Tok::Punct(c) => c.to_string(),
        Tok::Lifetime => "'_".to_string(),
        Tok::Str(_) => "\"…\"".to_string(),
        Tok::Char => "'…'".to_string(),
        Tok::Num => "N".to_string(),
        Tok::Comment(_) => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    fn find<'a>(pf: &'a ParsedFile, name: &str) -> &'a FnDef {
        pf.fns.iter().find(|f| f.name == name).unwrap_or_else(|| {
            panic!(
                "fn {name} not parsed; got {:?}",
                pf.fns.iter().map(|f| &f.name).collect::<Vec<_>>()
            )
        })
    }

    #[test]
    fn free_fn_with_call_and_path() {
        let pf = parse_src(
            "fn f() { let t = Instant::now(); let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        let f = find(&pf, "f");
        assert!(f.calls.iter().any(|c| c.path == ["Instant", "now"]));
        assert!(f.calls.iter().any(|c| c.path == ["HashMap", "new"]));
        assert!(f.paths.iter().any(|p| p.path == ["HashMap"]));
    }

    #[test]
    fn impl_block_owner_and_receiver() {
        let pf = parse_src(
            "impl<V: Clone> Protocol for Reg<V> where V: Send {\n\
               fn on_tick(&mut self, ctx: &mut Ctx<Self>) { ctx.send(1, m); }\n\
               fn label(&self, me: usize) -> Label { Label::local() }\n\
             }",
        );
        let tick = find(&pf, "on_tick");
        let owner = tick.owner.as_ref().unwrap();
        assert_eq!(owner.trait_name.as_deref(), Some("Protocol"));
        assert_eq!(owner.self_ty, "Reg");
        assert_eq!(tick.receiver, Receiver::RefMut);
        assert!(tick.params[0].by_mut_ref);
        assert!(tick.params[0].ty.contains("Ctx"));
        let call = tick.calls.iter().find(|c| c.path == ["send"]).unwrap();
        assert!(call.method);
        assert_eq!(call.receiver.as_deref(), Some("ctx"));
        let label = find(&pf, "label");
        assert_eq!(label.receiver, Receiver::Ref);
        assert!(label.calls.iter().any(|c| c.path == ["Label", "local"]));
    }

    #[test]
    fn double_angle_close_survives() {
        let pf = parse_src(
            "fn g(x: Vec<Vec<u64>>) -> Option<Box<Vec<u8>>> { h(); }\n fn after() { k(); }",
        );
        assert!(find(&pf, "g").calls.iter().any(|c| c.path == ["h"]));
        assert!(find(&pf, "after").calls.iter().any(|c| c.path == ["k"]));
    }

    #[test]
    fn arrow_inside_generics() {
        let pf = parse_src(
            "fn g<F: Fn(u32) -> bool>(f: F) where F: Fn(u32) -> bool { f(3); }\n fn next() {}",
        );
        assert!(find(&pf, "g").has_body);
        assert!(pf.fns.iter().any(|f| f.name == "next"));
    }

    #[test]
    fn nested_fn_and_impl_in_body() {
        let pf = parse_src(
            "fn outer() {\n\
               fn inner() { Instant::now(); }\n\
               struct Local;\n\
               impl Protocol for Local { fn on_start(&mut self) { } }\n\
               inner();\n\
             }",
        );
        assert!(find(&pf, "outer").calls.iter().any(|c| c.path == ["inner"]));
        assert!(find(&pf, "inner")
            .calls
            .iter()
            .any(|c| c.path == ["Instant", "now"]));
        let start = find(&pf, "on_start");
        assert_eq!(
            start.owner.as_ref().unwrap().trait_name.as_deref(),
            Some("Protocol")
        );
        assert_eq!(start.receiver, Receiver::RefMut);
    }

    #[test]
    fn macro_interior_is_scanned_but_macro_rules_is_not() {
        let pf = parse_src(
            "fn f() {\n\
               assert_eq!(Instant::now(), t);\n\
               macro_rules! mk { ($x:expr) => { SystemTime::now() } }\n\
             }",
        );
        let f = find(&pf, "f");
        assert!(f.calls.iter().any(|c| c.path == ["Instant", "now"]));
        assert!(!f.calls.iter().any(|c| c.path == ["SystemTime", "now"]));
        // `assert_eq` itself is a macro, not a workspace call.
        assert!(!f.calls.iter().any(|c| c.path == ["assert_eq"]));
    }

    #[test]
    fn self_field_reads_and_writes() {
        let pf = parse_src(
            "impl Foo { fn step(&mut self) { self.phase = 1; self.count += 1; \
             if self.done == true { } let x = self.val; } }",
        );
        let f = find(&pf, "step");
        let get = |n: &str| f.self_fields.iter().find(|a| a.name == n).unwrap();
        assert!(get("phase").write);
        assert!(get("count").write);
        assert!(!get("done").write);
        assert!(!get("val").write);
    }

    #[test]
    fn cfg_test_marks_items_and_modules() {
        let pf = parse_src(
            "#[cfg(test)] mod tests { fn helper() {} #[test] fn case() {} }\n\
             fn live() {}",
        );
        assert!(find(&pf, "helper").in_test);
        assert!(find(&pf, "case").in_test);
        assert!(!find(&pf, "live").in_test);
    }

    #[test]
    fn deprecated_attr_with_since() {
        let pf = parse_src(
            "#[deprecated(since = \"0.6.0\", note = \"use X\")]\npub fn old_api() {}\n\
             #[deprecated]\npub struct OldThing;",
        );
        assert_eq!(pf.deprecations.len(), 2);
        assert_eq!(pf.deprecations[0].since.as_deref(), Some("0.6.0"));
        assert_eq!(pf.deprecations[0].item, "old_api");
        assert_eq!(pf.deprecations[1].since, None);
        assert_eq!(pf.deprecations[1].item, "OldThing");
    }

    #[test]
    fn raw_strings_and_chars_do_not_confuse() {
        let pf = parse_src(
            "fn f() { let s = r#\"fn fake() { Instant::now() }\"#; let c = 'a'; \
             let lt: &'static str = \"x\"; g(); }",
        );
        let f = find(&pf, "f");
        assert!(!f.calls.iter().any(|c| c.path == ["Instant", "now"]));
        assert!(f.calls.iter().any(|c| c.path == ["g"]));
    }

    #[test]
    fn turbofish_calls() {
        let pf = parse_src(
            "fn f() { let v = Vec::<u64>::with_capacity(4); let c = xs.iter().collect::<Vec<_>>(); }",
        );
        let f = find(&pf, "f");
        assert!(f.calls.iter().any(|c| c.path == ["Vec", "with_capacity"]));
        assert!(f.calls.iter().any(|c| c.path == ["collect"] && c.method));
    }

    #[test]
    fn shift_and_comparison_are_not_generics() {
        let pf = parse_src(
            "fn f(a: u64, b: u64) -> u64 { if a < b { inner(); a << 2 } else { b >> 1 } }\n\
             fn g() { h(); }",
        );
        assert!(find(&pf, "f").calls.iter().any(|c| c.path == ["inner"]));
        assert!(find(&pf, "g").calls.iter().any(|c| c.path == ["h"]));
    }

    #[test]
    fn uppercase_const_comparison_is_not_generics() {
        let pf = parse_src("fn f(n: usize) { if QUORUM < n { inner(); } tail(); }");
        let f = find(&pf, "f");
        assert!(f.calls.iter().any(|c| c.path == ["inner"]));
        assert!(f.calls.iter().any(|c| c.path == ["tail"]));
    }

    #[test]
    fn garbage_recovers() {
        let pf = parse_src("@@@ %% fn ok() { x(); } ]]] struct ;;; fn also_ok() {}");
        assert!(find(&pf, "ok").calls.iter().any(|c| c.path == ["x"]));
        assert!(pf.fns.iter().any(|f| f.name == "also_ok"));
    }

    #[test]
    fn trait_decl_methods_have_trait_owner() {
        let pf = parse_src(
            "trait Machine { fn transition(&self, s: &State) -> Step; \
             fn enabled_into(&self, out: &mut Vec<Action>) { out.clear(); } }",
        );
        let t = find(&pf, "transition");
        assert_eq!(
            t.owner.as_ref().unwrap().trait_name.as_deref(),
            Some("Machine")
        );
        assert!(!t.has_body);
        let e = find(&pf, "enabled_into");
        assert!(e.has_body);
        assert!(e.params.iter().any(|p| p.name == "out" && p.by_mut_ref));
    }

    #[test]
    fn not_equals_is_not_a_macro() {
        let pf = parse_src("fn f() { if a != b { g(); } }");
        assert!(find(&pf, "f").calls.iter().any(|c| c.path == ["g"]));
    }

    #[test]
    fn const_generics_in_signature() {
        let pf = parse_src(
            "fn f<const N: usize>(xs: [u64; N]) -> Foo<{ N + 1 }> { g(); }\nfn tail() {}",
        );
        assert!(find(&pf, "f").calls.iter().any(|c| c.path == ["g"]));
        assert!(pf.fns.iter().any(|f| f.name == "tail"));
    }

    #[test]
    fn const_item_with_block_initializer_does_not_eat_scope() {
        let pf = parse_src(
            "mod m { const X: u32 = if cfg!(test) { 1 } else { 2 }; fn live() { g(); } }\n\
             fn outside() {}",
        );
        assert!(find(&pf, "live").calls.iter().any(|c| c.path == ["g"]));
        assert!(pf.fns.iter().any(|f| f.name == "outside"));
    }

    #[test]
    fn closure_bodies_attribute_to_enclosing_fn() {
        let pf = parse_src(
            "fn f() { let g = |x: u32| { Instant::now(); }; items.iter().map(|i| h(i)); }",
        );
        let f = find(&pf, "f");
        assert!(f.calls.iter().any(|c| c.path == ["Instant", "now"]));
        assert!(f.calls.iter().any(|c| c.path == ["h"]));
    }

    #[test]
    fn where_clause_with_fn_bound_on_impl() {
        let pf = parse_src(
            "impl<P, F> Machine for ProtocolMachine<'_, P, F> where P: Clone, \
             F: Fn(ProcessId, Time) -> Fd {\n\
               fn transition(&self, s: &State<P>) -> StepResult { go(s) }\n\
             }",
        );
        let t = find(&pf, "transition");
        let owner = t.owner.as_ref().unwrap();
        assert_eq!(owner.trait_name.as_deref(), Some("Machine"));
        assert_eq!(owner.self_ty, "ProtocolMachine");
        assert_eq!(t.receiver, Receiver::Ref);
        assert!(t.calls.iter().any(|c| c.path == ["go"]));
    }
}
