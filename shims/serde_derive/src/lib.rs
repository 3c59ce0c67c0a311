//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! shim `serde` crate. `Serialize` renders the item into a `Value`
//! tree; `Deserialize` reads it field by field off a streaming
//! `serde::Deserializer`, with no tree in between: a struct body is one
//! pass over the object's keys, filling a slot per field (the first of
//! a repeated key wins, unknown keys are skipped, absent keys read as
//! `null` through `serde::Absent`). Because the build cannot fetch
//! `syn`/`quote`, the item is parsed directly from the `proc_macro`
//! token stream. Supported shapes — everything this workspace derives
//! on:
//!
//! * structs with named fields, tuple structs, unit structs;
//! * enums with unit, newtype, tuple and struct variants
//!   (externally tagged, matching real serde's default).
//!
//! Generics and `#[serde(...)]` attributes are intentionally not
//! supported; deriving on such an item produces a compile error naming
//! this shim.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field layout of a struct or enum variant.
enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .expect("serde shim derive generated invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

// --- parsing ------------------------------------------------------------

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn ident_of(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

/// Advances past any `#[...]` attributes starting at `i`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len()
        && is_punct(&tokens[i], '#')
        && matches!(&tokens[i + 1], TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket)
    {
        i += 2;
    }
    i
}

/// Advances past `pub` / `pub(...)` starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if i < tokens.len() && ident_of(&tokens[i]).as_deref() == Some("pub") {
        i += 1;
        if i < tokens.len()
            && matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Splits a token list on commas at angle-bracket depth zero. Nested
/// `(...)`/`[...]`/`{...}` arrive as single group tokens, but generic
/// argument lists (`BTreeMap<String, V>`) are flat punctuation, so `<`
/// and `>` depth must be tracked explicitly.
fn split_top_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    for t in tokens {
        if is_punct(t, '<') {
            angle += 1;
        } else if is_punct(t, '>') {
            angle -= 1;
        } else if is_punct(t, ',') && angle == 0 {
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
            continue;
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Parses named fields out of a brace group's tokens.
fn parse_named_fields(tokens: &[TokenTree]) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for seg in split_top_commas(tokens) {
        let mut i = skip_attrs(&seg, 0);
        i = skip_vis(&seg, i);
        let name = seg
            .get(i)
            .and_then(ident_of)
            .ok_or_else(|| "serde shim derive: expected field name".to_owned())?;
        if !seg.get(i + 1).is_some_and(|t| is_punct(t, ':')) {
            return Err(format!(
                "serde shim derive: expected `:` after field `{name}`"
            ));
        }
        names.push(name);
    }
    Ok(names)
}

/// Parses the fields of one enum variant or struct body element.
fn parse_variant(seg: &[TokenTree]) -> Result<(String, Fields), String> {
    let i = skip_attrs(seg, 0);
    let name = seg
        .get(i)
        .and_then(ident_of)
        .ok_or_else(|| "serde shim derive: expected variant name".to_owned())?;
    match seg.get(i + 1) {
        None => Ok((name, Fields::Unit)),
        Some(t) if is_punct(t, '=') => Ok((name, Fields::Unit)), // discriminant
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok((name, Fields::Tuple(split_top_commas(&inner).len())))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok((name, Fields::Named(parse_named_fields(&inner)?)))
        }
        Some(other) => Err(format!(
            "serde shim derive: unexpected token after variant `{name}`: {other}"
        )),
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);
    let keyword = tokens
        .get(i)
        .and_then(ident_of)
        .ok_or_else(|| "serde shim derive: expected `struct` or `enum`".to_owned())?;
    i += 1;
    let name = tokens
        .get(i)
        .and_then(ident_of)
        .ok_or_else(|| "serde shim derive: expected item name".to_owned())?;
    i += 1;
    if tokens.get(i).is_some_and(|t| is_punct(t, '<')) {
        return Err(format!(
            "serde shim derive: generic type `{name}` is not supported (the offline serde \
             stand-in only derives plain structs and enums)"
        ));
    }
    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                None | Some(TokenTree::Punct(_)) => Fields::Unit, // `struct X;`
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Named(parse_named_fields(&inner)?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Tuple(split_top_commas(&inner).len())
                }
                Some(other) => {
                    return Err(format!(
                        "serde shim derive: unexpected struct body: {other}"
                    ))
                }
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let variants = split_top_commas(&inner)
                    .iter()
                    .map(|seg| parse_variant(seg))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Item::Enum { name, variants })
            }
            _ => Err("serde shim derive: expected enum body".to_owned()),
        },
        other => Err(format!(
            "serde shim derive: cannot derive for `{other}` items"
        )),
    }
}

// --- code generation ----------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_owned(),
                Fields::Named(names) => {
                    let pairs: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from({f:?}), \
                                 ::serde::Serialize::to_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
                }
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_owned(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
                }
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => format!(
                        "{name}::{v} => \
                         ::serde::Value::Str(::std::string::String::from({v:?})),"
                    ),
                    Fields::Tuple(1) => format!(
                        "{name}::{v}(__f0) => ::serde::Value::Object(::std::vec![(\
                         ::std::string::String::from({v:?}), \
                         ::serde::Serialize::to_value(__f0))]),"
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(::std::vec![(\
                             ::std::string::String::from({v:?}), \
                             ::serde::Value::Array(::std::vec![{}]))]),",
                            binds.join(", "),
                            items.join(", ")
                        )
                    }
                    Fields::Named(fs) => {
                        let binds = fs.join(", ");
                        let pairs: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({f:?}), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec![(\
                             ::std::string::String::from({v:?}), \
                             ::serde::Value::Object(::std::vec![{}]))]),",
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {} }}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

/// A block expression that reads a body of `fields` off the
/// deserializer `__d` and evaluates to `ctor` built from them. A shape
/// error returns early from the generated `deserialize`, with `owner`
/// naming the field in its message; `not_object` is the error for a
/// named body that is not an object.
fn read_body(ctor: &str, owner: &str, fields: &Fields, not_object: &str) -> String {
    match fields {
        Fields::Unit => format!("{{ __d.skip_value()?; {ctor} }}"),
        Fields::Tuple(1) => {
            format!("{ctor}(::serde::Deserialize::deserialize(__d).map_err(|e| e.ctx({owner:?}))?)")
        }
        Fields::Tuple(n) => {
            let wrong = format!(
                "return ::std::result::Result::Err(::serde::DeError::new(\
                 \"expected {n}-element array for {owner}\"))"
            );
            let items: Vec<String> = (0..*n)
                .map(|i| {
                    format!(
                        "let __e{i} = if __d.next_element()? {{ \
                         ::serde::Deserialize::deserialize(__d)? }} else {{ {wrong} }};"
                    )
                })
                .collect();
            let binds: Vec<String> = (0..*n).map(|i| format!("__e{i}")).collect();
            format!(
                "{{\n\
                     if __d.peek()? != ::serde::Kind::Array {{ {wrong}; }}\n\
                     __d.begin_array()?;\n\
                     {}\n\
                     if __d.next_element()? {{ {wrong}; }}\n\
                     {ctor}({})\n\
                 }}",
                items.join("\n"),
                binds.join(", ")
            )
        }
        Fields::Named(fs) => {
            let slots: Vec<String> = (0..fs.len())
                .map(|i| format!("let mut __f{i} = ::std::option::Option::None;"))
                .collect();
            // A repeated key keeps its first value: once a slot is
            // filled, later values fall through to be skipped.
            let arms: Vec<String> = fs
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "{f:?} if __f{i}.is_none() => __f{i} = ::std::option::Option::Some(\
                         ::serde::Deserialize::deserialize(__d)\
                         .map_err(|e| e.ctx(\"{owner}.{f}\"))?),"
                    )
                })
                .collect();
            // An absent key reads as `null`.
            let inits: Vec<String> = fs
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "{f}: match __f{i} {{\n\
                             ::std::option::Option::Some(__v) => __v,\n\
                             ::std::option::Option::None => \
                                 ::serde::Deserialize::deserialize(&mut ::serde::Absent)\
                                 .map_err(|e| e.ctx(\"{owner}.{f}\"))?,\n\
                         }},"
                    )
                })
                .collect();
            format!(
                "{{\n\
                     let __kind = __d.peek()?;\n\
                     if __kind != ::serde::Kind::Object {{\n\
                         return ::std::result::Result::Err({not_object});\n\
                     }}\n\
                     __d.begin_object()?;\n\
                     {}\n\
                     while let ::std::option::Option::Some(__key) = __d.next_key()? {{\n\
                         match __key {{\n\
                             {}\n\
                             _ => __d.skip_value()?,\n\
                         }}\n\
                     }}\n\
                     {ctor} {{ {} }}\n\
                 }}",
                slots.join("\n"),
                arms.join("\n"),
                inits.join("\n")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let not_object = format!("::serde::DeError::expected(\"object for {name}\", __kind)");
            (
                name,
                format!(
                    "::std::result::Result::Ok({})",
                    read_body(name, name, fields, &not_object)
                ),
            )
        }
        Item::Enum { name, variants } => {
            let unknown = format!(
                "::std::result::Result::Err(::serde::DeError::new(\
                 ::std::format!(\"unknown variant `{{__other}}` for {name}\")))"
            );
            let not_variant =
                format!("::serde::DeError::expected(\"{name} variant\", ::serde::Kind::Object)");
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| !matches!(f, Fields::Unit))
                .map(|(v, fields)| {
                    let not_object = format!(
                        "::serde::DeError::new(\"expected object payload for {name}::{v}\")"
                    );
                    format!(
                        "::std::option::Option::Some({v:?}) => {},",
                        read_body(
                            &format!("{name}::{v}"),
                            &format!("{name}::{v}"),
                            fields,
                            &not_object
                        )
                    )
                })
                .collect();
            // A data variant is a single-key object: the tag, then the
            // payload, then the close.
            let object_arm = if data_arms.is_empty() {
                format!(
                    "match __d.next_key()? {{\n\
                         ::std::option::Option::Some(__other) => {unknown},\n\
                         ::std::option::Option::None => ::std::result::Result::Err({not_variant}),\n\
                     }}"
                )
            } else {
                format!(
                    "let __value = match __d.next_key()? {{\n\
                         {}\n\
                         ::std::option::Option::Some(__other) => return {unknown},\n\
                         ::std::option::Option::None => \
                             return ::std::result::Result::Err({not_variant}),\n\
                     }};\n\
                     if __d.next_key()?.is_some() {{\n\
                         return ::std::result::Result::Err({not_variant});\n\
                     }}\n\
                     ::std::result::Result::Ok(__value)",
                    data_arms.join("\n")
                )
            };
            (
                name,
                format!(
                    "match __d.peek()? {{\n\
                         ::serde::Kind::Str => match __d.parse_str()? {{\n\
                             {}\n\
                             __other => {unknown},\n\
                         }},\n\
                         ::serde::Kind::Object => {{\n\
                             __d.begin_object()?;\n\
                             {object_arm}\n\
                         }}\n\
                         __kind => ::std::result::Result::Err(\
                             ::serde::DeError::expected(\"{name} variant\", __kind)),\n\
                     }}",
                    unit_arms.join("\n")
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize<__D: ::serde::Deserializer>(__d: &mut __D) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
