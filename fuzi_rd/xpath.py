"""XPath 1.0 engine over the arena DOM.

From-scratch lexer + recursive-descent parser + evaluator covering the
conformance surface the reference test-suite pins down (SURVEY.md §2.4;
reference executor: /root/reference/Sources/Queryable.swift:259-303):

  paths (absolute, relative, //, *), axes (child, descendant[-or-self],
  parent, ancestor[-or-self], self, following[-sibling],
  preceding[-sibling], attribute), predicates (attribute/value, stacked,
  positional, position()/last()), node tests (name, prefix:name, *, text(),
  comment(), node(), processing-instruction()), union `|`, and/or/not,
  =/!=/</<=/>/>= with full node-set coercion rules, arithmetic
  (+,-,*,div,mod, unary -), and the XPath 1.0 core function library.

Error surface mirrors libxml2's codes (reference Tests/XMLTests.swift:69-89):
syntax error -> QueryError(1207, "Invalid expression"); unknown function ->
QueryError(1209, "Unregistered function"); unbound namespace prefix at eval
-> QueryError(1219, ...) which the non-throwing query path swallows to an
empty node-set (reference Queryable.swift:195-200).

Compile once (``compile_xpath``), evaluate many: pipeline actors cache
compiled ASTs in ``__init__`` (the Ray analog of the reference's warm
``XMLActor`` state, Sources/Actor.swift:136-256).

Namespace environment semantics replicate the reference's context setup
(Queryable.swift:272-294): prefixes declared on the context node's ancestor
chain are auto-registered (ancestors overriding descendants, matching the
walk order), then user-defined prefixes override everything.

Node-sets are lists whose items are arena node ids (ints) or attribute
pseudo-nodes ``("A", owner_id, attr_index, qname, local, value)``; document
order is the integer order of ids (preorder arena ids), attributes ordering
directly after their owner element.
"""

from __future__ import annotations

import math
import re

from fuzi_rd.dom import CDATA, COMMENT, ELEMENT, PI, TEXT, Arena
from fuzi_rd.errors import FuziError, QueryError

_NULL = -1

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<num>\d+(?:\.\d*)?|\.\d+)
    | (?P<str>"[^"]*"|'[^']*')
    | (?P<dcolon>::)
    | (?P<dslash>//)
    | (?P<ddot>\.\.)
    | (?P<neq>!=)
    | (?P<lte><=)
    | (?P<gte>>=)
    | (?P<name>[A-Za-z_][\w.\-]*(?::\*|:[A-Za-z_][\w.\-]*)?|\*(?!\*))
    | (?P<var>\$[\w.\-:]+)
    | (?P<sym>[/|+\-=<>()\[\]@,.])
    )
    """,
    re.VERBOSE,
)

_OPERATOR_NAMES = {"and", "or", "mod", "div"}
_NODE_TYPES = {"text", "comment", "node", "processing-instruction"}

# tokens after which a name/'*' must be a name test (not an operator)
_OP_LIKE = {
    None, "::", "/", "//", "|", "+", "-", "=", "!=", "<", "<=", ">", ">=",
    "(", "[", ",", "@", "and", "or", "mod", "div", "*op",
}


def _tokenize(expr: str):
    tokens = []
    pos = 0
    prev = None  # previous significant token symbol for disambiguation
    n = len(expr)
    while pos < n:
        m = _TOKEN_RE.match(expr, pos)
        if m is None or m.end() == m.start():
            rest = expr[pos:].strip()
            if not rest:
                break
            raise QueryError.invalid_expression()
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "num":
            tokens.append(("num", float(val)))
            prev = "num"
        elif kind == "str":
            tokens.append(("str", val[1:-1]))
            prev = "str"
        elif kind == "var":
            raise QueryError.invalid_expression()  # variables unsupported
        elif kind == "name":
            if val == "*":
                if prev not in _OP_LIKE:
                    tokens.append(("op", "*op"))
                    prev = "*op"
                else:
                    tokens.append(("wild", "*"))
                    prev = "name"
            elif val in _OPERATOR_NAMES and prev not in _OP_LIKE:
                tokens.append(("op", val))
                prev = val
            else:
                tokens.append(("name", val))
                prev = "name"
        elif kind == "dcolon":
            tokens.append(("op", "::"))
            prev = "::"
        elif kind == "dslash":
            tokens.append(("op", "//"))
            prev = "//"
        elif kind == "ddot":
            tokens.append(("op", ".."))
            prev = ".."
        elif kind == "neq":
            tokens.append(("op", "!="))
            prev = "!="
        elif kind == "lte":
            tokens.append(("op", "<="))
            prev = "<="
        elif kind == "gte":
            tokens.append(("op", ">="))
            prev = ">="
        else:
            tokens.append(("op", val))
            prev = val
    return tokens


# ---------------------------------------------------------------------------
# Parser -> AST (nested tuples)
# ---------------------------------------------------------------------------

_AXES = {
    "child", "descendant", "descendant-or-self", "parent", "ancestor",
    "ancestor-or-self", "following-sibling", "preceding-sibling",
    "following", "preceding", "self", "attribute", "namespace",
}

_FUNCTIONS = {
    "last", "position", "count", "local-name", "namespace-uri", "name",
    "string", "concat", "starts-with", "contains", "substring-before",
    "substring-after", "substring", "string-length", "normalize-space",
    "translate", "boolean", "not", "true", "false", "number", "sum",
    "floor", "ceiling", "round", "id", "lang",
}


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, sym):
        kind, val = self.next()
        if kind != "op" or val != sym:
            raise QueryError.invalid_expression()

    def at_op(self, *syms):
        kind, val = self.peek()
        return kind == "op" and val in syms

    # Expr grammar
    def parse(self):
        e = self.or_expr()
        if self.i != len(self.toks):
            raise QueryError.invalid_expression()
        return e

    def or_expr(self):
        e = self.and_expr()
        while self.at_op("or"):
            self.next()
            e = ("or", e, self.and_expr())
        return e

    def and_expr(self):
        e = self.equality_expr()
        while self.at_op("and"):
            self.next()
            e = ("and", e, self.equality_expr())
        return e

    def equality_expr(self):
        e = self.relational_expr()
        while self.at_op("=", "!="):
            _, op = self.next()
            e = ("eq" if op == "=" else "neq", e, self.relational_expr())
        return e

    def relational_expr(self):
        e = self.additive_expr()
        while self.at_op("<", "<=", ">", ">="):
            _, op = self.next()
            e = ({"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}[op], e, self.additive_expr())
        return e

    def additive_expr(self):
        e = self.multiplicative_expr()
        while self.at_op("+", "-"):
            _, op = self.next()
            e = ("add" if op == "+" else "sub", e, self.multiplicative_expr())
        return e

    def multiplicative_expr(self):
        e = self.unary_expr()
        while self.at_op("*op", "div", "mod"):
            _, op = self.next()
            e = ({"*op": "mul", "div": "divf", "mod": "mod"}[op], e, self.unary_expr())
        return e

    def unary_expr(self):
        neg = 0
        while self.at_op("-"):
            self.next()
            neg += 1
        e = self.union_expr()
        for _ in range(neg):
            e = ("neg", e)
        return e

    def union_expr(self):
        e = self.path_expr()
        while self.at_op("|"):
            self.next()
            e = ("union", e, self.path_expr())
        return e

    def path_expr(self):
        kind, val = self.peek()
        # primary expressions -> FilterExpr
        if kind in ("num", "str") or (kind == "op" and val == "("):
            return self.filter_expr()
        if kind == "name" and val not in _NODE_TYPES:
            nk, nv = self.peek(1)
            if nk == "op" and nv == "(":
                return self.filter_expr()
        return self.location_path()

    def filter_expr(self):
        kind, val = self.peek()
        if kind == "num":
            self.next()
            e = ("num", val)
        elif kind == "str":
            self.next()
            e = ("str", val)
        elif kind == "op" and val == "(":
            self.next()
            e = self.or_expr()
            self.expect(")")
        elif kind == "name":
            e = self.function_call()
        else:
            raise QueryError.invalid_expression()
        preds = []
        while self.at_op("["):
            self.next()
            preds.append(self.or_expr())
            self.expect("]")
        steps = []
        while self.at_op("/", "//"):
            _, op = self.next()
            if op == "//":
                steps.append(("step", "descendant-or-self", ("node",), []))
            steps.append(self.step())
        if preds or steps:
            return ("filter", e, preds, steps)
        return e

    def function_call(self):
        _, name = self.next()
        if name not in _FUNCTIONS:
            raise QueryError.unregistered_function()
        self.expect("(")
        args = []
        if not self.at_op(")"):
            args.append(self.or_expr())
            while self.at_op(","):
                self.next()
                args.append(self.or_expr())
        self.expect(")")
        return ("call", name, args)

    def location_path(self):
        steps = []
        absolute = False
        if self.at_op("/"):
            absolute = True
            self.next()
            if not self._step_ahead():
                return ("path", True, [])
        elif self.at_op("//"):
            absolute = True
            self.next()
            steps.append(("step", "descendant-or-self", ("node",), []))
            if not self._step_ahead():
                raise QueryError.invalid_expression()
        steps.append(self.step())
        while self.at_op("/", "//"):
            _, op = self.next()
            if op == "//":
                steps.append(("step", "descendant-or-self", ("node",), []))
            if not self._step_ahead():
                raise QueryError.invalid_expression()
            steps.append(self.step())
        return ("path", absolute, steps)

    def _step_ahead(self):
        kind, val = self.peek()
        if kind in ("name", "wild"):
            return True
        if kind == "op" and val in (".", "..", "@"):
            return True
        return False

    def step(self):
        kind, val = self.peek()
        if kind == "op" and val == ".":
            self.next()
            return ("step", "self", ("node",), [])
        if kind == "op" and val == "..":
            self.next()
            return ("step", "parent", ("node",), [])
        axis = "child"
        if kind == "op" and val == "@":
            self.next()
            axis = "attribute"
        elif kind == "name":
            nk, nv = self.peek(1)
            if nk == "op" and nv == "::":
                if val not in _AXES:
                    raise QueryError.invalid_expression()
                axis = val
                self.next()
                self.next()
        test = self.node_test(axis)
        preds = []
        while self.at_op("["):
            self.next()
            preds.append(self.or_expr())
            self.expect("]")
        return ("step", axis, test, preds)

    def node_test(self, axis):
        kind, val = self.next()
        if kind == "wild":
            return ("*",)
        if kind != "name":
            raise QueryError.invalid_expression()
        if val in _NODE_TYPES:
            nk, nv = self.peek()
            if nk == "op" and nv == "(":
                self.next()
                arg = None
                if val == "processing-instruction":
                    ak, av = self.peek()
                    if ak == "str":
                        self.next()
                        arg = av
                self.expect(")")
                if val == "text":
                    return ("text",)
                if val == "comment":
                    return ("comment",)
                if val == "node":
                    return ("node",)
                return ("pi", arg)
        if ":" in val:
            prefix, local = val.split(":", 1)
            if local == "*":
                return ("ns*", prefix)
            return ("name", prefix, local)
        return ("name", None, val)


def compile_xpath(expr: str):
    """Compile an XPath string to an AST.  Raises QueryError(1207/1209)."""
    try:
        tokens = _tokenize(expr)
        if not tokens:
            raise QueryError.invalid_expression()
        return _Parser(tokens).parse()
    except QueryError:
        raise
    except Exception:
        raise QueryError.invalid_expression() from None


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


def build_ns_env(arena: Arena, context_id: int, user_prefixes: dict) -> dict:
    """Replicate the reference's prefix registration (Queryable.swift:272-294):
    walk the ancestor chain registering declared *prefixed* namespaces (walk
    order child->ancestor with plain overwrite, so outermost wins), then
    apply user-defined prefixes on top."""
    env = {}
    nid = context_id
    nsdefs = arena.nsdefs
    parents = arena.parents
    while nid > 0:
        defs = nsdefs[nid]
        if defs:
            for prefix, uri in defs:
                if prefix:
                    env[prefix] = uri
        nid = parents[nid]
    if user_prefixes:
        env.update(user_prefixes)
    return env


def _doc_key(item):
    if type(item) is int:
        return (item, 0, 0)
    return (item[1], 1, item[2])


class _Ctx:
    __slots__ = ("arena", "env", "item", "pos", "size")

    def __init__(self, arena, env, item, pos=1, size=1):
        self.arena = arena
        self.env = env
        self.item = item
        self.pos = pos
        self.size = size


def string_value(arena: Arena, item) -> str:
    if type(item) is int:
        return arena.string_value(item)
    return item[5]


def _fmt_number(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    if v == int(v) and abs(v) < 1e16:
        iv = int(v)
        return str(iv) if iv != 0 else "0"
    return repr(v)


def to_string(arena, value) -> str:
    if isinstance(value, list):
        if not value:
            return ""
        return string_value(arena, value[0])
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_number(value)
    return value


def to_number(arena, value) -> float:
    if isinstance(value, list):
        return to_number(arena, to_string(arena, value))
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    s = value.strip()
    try:
        return float(s) if s else math.nan
    except ValueError:
        return math.nan


def to_boolean(value) -> bool:
    if isinstance(value, list):
        return len(value) > 0
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value == value and value != 0.0
    return len(value) > 0


def _node_test_match(arena, item, test, env, axis):
    if axis == "attribute":
        if type(item) is not tuple:
            return False
        kind = test[0]
        if kind == "*":
            return True
        if kind == "name":
            # unprefixed attr test matches by local name
            return item[4] == test[2]
        if kind == "ns*":
            return True
        return False
    if type(item) is not int:
        return False
    t = arena.types[item]
    kind = test[0]
    if kind == "node":
        return True
    if kind == "text":
        return t == TEXT or t == CDATA
    if kind == "comment":
        return t == COMMENT
    if kind == "pi":
        return t == PI and (test[1] is None or arena.names[item] == test[1])
    if t != ELEMENT:
        return False
    if kind == "*":
        return True
    if kind == "ns*":
        prefix = test[1]
        if prefix not in env:
            raise QueryError(1219, "Undefined namespace prefix")
        return arena.ns_uri[item] == env[prefix]
    # ('name', prefix, local)
    prefix, local = test[1], test[2]
    if arena.names[item] != local:
        return False
    if prefix is None:
        return arena.ns_uri[item] is None
    if prefix not in env:
        raise QueryError(1219, "Undefined namespace prefix")
    return arena.ns_uri[item] == env[prefix]


def _iter_axis(arena: Arena, item, axis):
    """Yield candidate items along an axis in proximity order."""
    dead_any = arena.n_dead > 0
    if axis == "attribute":
        if type(item) is int and arena.types[item] == ELEMENT:
            order = arena.attr_order[item]
            if order:
                for idx, (qname, local, value) in enumerate(order):
                    yield ("A", item, idx, qname, local, value)
        return
    if type(item) is not int:
        if axis in ("parent", "ancestor", "ancestor-or-self"):
            owner = item[1]
            if axis == "ancestor-or-self":
                yield item
            nid = owner
            while nid > 0:
                yield nid
                nid = arena.parents[nid]
            if axis == "parent":
                return
        return
    nid = item
    if axis == "self":
        yield nid
        return
    if axis == "child":
        c = arena.first_child[nid]
        nxt = arena.next_sib
        dead = arena.dead
        while c != _NULL:
            if not dead[c]:
                yield c
            c = nxt[c]
        return
    if axis == "descendant" or axis == "descendant-or-self":
        if axis == "descendant-or-self":
            yield nid
        end = arena.subtree_end[nid]
        if not dead_any:
            yield from range(nid + 1, end)
        else:
            dead = arena.dead
            parents = arena.parents
            skip_until = -1
            for i in range(nid + 1, end):
                if i < skip_until:
                    continue
                if dead[i]:
                    skip_until = arena.subtree_end[i]
                    continue
                yield i
        return
    if axis == "parent":
        p = arena.parents[nid]
        if p > 0:
            yield p
        return
    if axis == "ancestor" or axis == "ancestor-or-self":
        if axis == "ancestor-or-self":
            yield nid
        p = arena.parents[nid]
        while p > 0:
            yield p
            p = arena.parents[p]
        return
    if axis == "following-sibling":
        s = arena.next_sib[nid]
        dead = arena.dead
        while s != _NULL:
            if not dead[s]:
                yield s
            s = arena.next_sib[s]
        return
    if axis == "preceding-sibling":
        s = arena.prev_sib[nid]
        dead = arena.dead
        while s != _NULL:
            if not dead[s]:
                yield s
            s = arena.prev_sib[s]
        return
    if axis == "following":
        end = arena.subtree_end[nid]
        n = len(arena.types)
        for i in range(end, n):
            if not (dead_any and arena.is_effectively_dead(i)):
                yield i
        return
    if axis == "preceding":
        ancestors = set()
        p = arena.parents[nid]
        while p > 0:
            ancestors.add(p)
            p = arena.parents[p]
        for i in range(nid - 1, 0, -1):
            if i in ancestors:
                continue
            if not (dead_any and arena.is_effectively_dead(i)):
                yield i
        return
    if axis == "namespace":
        return


def _eval_step(arena, env, items, step):
    """Apply one location step to a node-set; returns doc-ordered node-set."""
    _, axis, test, preds = step
    # Fast path for the hottest shape by far (every CSS-derived descendant
    # step, e.g. `.//h1`): unprefixed name test on the descendant axis of a
    # live tree is one contiguous typed scan over the arena arrays instead of
    # a generator + per-candidate match call per node.
    if (
        not preds
        and (axis == "descendant" or axis == "descendant-or-self")
        and test[0] == "name"
        and test[1] is None
        and arena.n_dead == 0
    ):
        types = arena.types
        names = arena.names
        ns_uri = arena.ns_uri
        end_arr = arena.subtree_end
        local = test[2]
        out = []
        last_end = -1
        for item in items:
            if type(item) is not int:
                continue
            lo = item if axis == "descendant-or-self" else item + 1
            hi = end_arr[item]
            if lo < last_end:  # nested context nodes: skip the overlap
                lo = last_end
            if hi > last_end:
                last_end = hi
            out.extend(
                i
                for i in range(lo, hi)
                if types[i] == ELEMENT and names[i] == local and ns_uri[i] is None
            )
        return out
    out = []
    seen = set()
    for item in items:
        matches = [
            cand
            for cand in _iter_axis(arena, item, axis)
            if _node_test_match(arena, cand, test, env, axis)
        ]
        for pred in preds:
            size = len(matches)
            kept = []
            for pos, cand in enumerate(matches, 1):
                v = _eval(pred, _Ctx(arena, env, cand, pos, size))
                if isinstance(v, float):
                    if v == pos:
                        kept.append(cand)
                elif to_boolean(v):
                    kept.append(cand)
            matches = kept
        for cand in matches:
            key = cand if type(cand) is int else (cand[1], cand[2])
            if key not in seen:
                seen.add(key)
                out.append(cand)
    out.sort(key=_doc_key)
    return out


def _eval_steps(arena, env, start_items, steps):
    items = start_items
    for step in steps:
        items = _eval_step(arena, env, items, step)
        if not items:
            return []
    return items


def _cmp_values(arena, op, a, b):
    a_set = isinstance(a, list)
    b_set = isinstance(b, list)
    if op in ("eq", "neq"):
        if a_set and b_set:
            bs = {string_value(arena, y) for y in b}
            found = any(string_value(arena, x) in bs for x in a)
            if op == "eq":
                return found
            # exists pair with different strings
            as_ = [string_value(arena, x) for x in a]
            return any(x != y for x in as_ for y in bs) if bs else False
        if a_set or b_set:
            nodes, other = (a, b) if a_set else (b, a)
            if isinstance(other, bool):
                res = to_boolean(nodes) == other
                return res if op == "eq" else not res
            if isinstance(other, float):
                vals = (to_number(arena, string_value(arena, x)) for x in nodes)
                return any((v == other) if op == "eq" else (v != other) for v in vals)
            vals = (string_value(arena, x) for x in nodes)
            return any((v == other) if op == "eq" else (v != other) for v in vals)
        if isinstance(a, bool) or isinstance(b, bool):
            r = to_boolean(a) == to_boolean(b)
        elif isinstance(a, float) or isinstance(b, float):
            r = to_number(arena, a) == to_number(arena, b)
        else:
            r = a == b
        return r if op == "eq" else not r
    # relational
    import operator as _op

    f = {"lt": _op.lt, "le": _op.le, "gt": _op.gt, "ge": _op.ge}[op]
    if a_set and b_set:
        avs = [to_number(arena, string_value(arena, x)) for x in a]
        bvs = [to_number(arena, string_value(arena, y)) for y in b]
        return any(f(x, y) for x in avs for y in bvs)
    if a_set:
        bn = to_number(arena, b)
        return any(f(to_number(arena, string_value(arena, x)), bn) for x in a)
    if b_set:
        an = to_number(arena, a)
        return any(f(an, to_number(arena, string_value(arena, y))) for y in b)
    return f(to_number(arena, a), to_number(arena, b))


def _qname_of(arena, item):
    if type(item) is tuple:
        return item[3]
    if arena.types[item] == ELEMENT:
        p = arena.ns_prefix[item]
        n = arena.names[item]
        return f"{p}:{n}" if p else n
    if arena.types[item] == PI:
        return arena.names[item]
    return ""


def _call(name, args, ctx):
    arena = ctx.arena
    if name == "last":
        return float(ctx.size)
    if name == "position":
        return float(ctx.pos)
    if name == "count":
        return float(len(args[0]))
    if name == "string":
        if not args:
            return string_value(arena, ctx.item)
        return to_string(arena, args[0])
    if name == "concat":
        return "".join(to_string(arena, a) for a in args)
    if name == "starts-with":
        return to_string(arena, args[0]).startswith(to_string(arena, args[1]))
    if name == "contains":
        return to_string(arena, args[1]) in to_string(arena, args[0])
    if name == "substring-before":
        s, sub = to_string(arena, args[0]), to_string(arena, args[1])
        i = s.find(sub)
        return s[:i] if i >= 0 else ""
    if name == "substring-after":
        s, sub = to_string(arena, args[0]), to_string(arena, args[1])
        i = s.find(sub)
        return s[i + len(sub):] if i >= 0 else ""
    if name == "substring":
        s = to_string(arena, args[0])
        start = to_number(arena, args[1])
        if math.isnan(start):
            return ""
        start = round(start)
        if len(args) > 2:
            length = to_number(arena, args[2])
            if math.isnan(length):
                return ""
            end = start + round(length)
        else:
            end = math.inf
        out = []
        for i, ch in enumerate(s, 1):
            if i >= start and i < end:
                out.append(ch)
        return "".join(out)
    if name == "string-length":
        s = to_string(arena, args[0]) if args else string_value(arena, ctx.item)
        return float(len(s))
    if name == "normalize-space":
        s = to_string(arena, args[0]) if args else string_value(arena, ctx.item)
        return " ".join(s.split())
    if name == "translate":
        s = to_string(arena, args[0])
        frm = to_string(arena, args[1])
        to = to_string(arena, args[2])
        table = {}
        for i, ch in enumerate(frm):
            if ch not in table:
                table[ch] = to[i] if i < len(to) else None
        return "".join(
            table.get(ch, ch) for ch in s if table.get(ch, ch) is not None
        )
    if name == "boolean":
        return to_boolean(args[0])
    if name == "not":
        return not to_boolean(args[0])
    if name == "true":
        return True
    if name == "false":
        return False
    if name == "number":
        if not args:
            return to_number(arena, string_value(arena, ctx.item))
        return to_number(arena, args[0])
    if name == "sum":
        return float(
            sum(to_number(arena, string_value(arena, x)) for x in args[0])
        )
    if name == "floor":
        return float(math.floor(to_number(arena, args[0])))
    if name == "ceiling":
        return float(math.ceil(to_number(arena, args[0])))
    if name == "round":
        v = to_number(arena, args[0])
        if math.isnan(v) or math.isinf(v):
            return v
        return float(math.floor(v + 0.5))
    if name == "local-name":
        items = args[0] if args else [ctx.item]
        if not items:
            return ""
        it = items[0]
        if type(it) is tuple:
            return it[4]
        return arena.names[it] or ""
    if name == "namespace-uri":
        items = args[0] if args else [ctx.item]
        if not items:
            return ""
        it = items[0]
        if type(it) is int and arena.types[it] == ELEMENT:
            return arena.ns_uri[it] or ""
        return ""
    if name == "name":
        items = args[0] if args else [ctx.item]
        if not items:
            return ""
        return _qname_of(arena, items[0])
    if name == "id":
        return []
    if name == "lang":
        return False
    raise QueryError.unregistered_function()


def _eval(node, ctx):
    op = node[0]
    arena = ctx.arena
    if op == "path":
        _, absolute, steps = node
        start = [0] if absolute else [ctx.item]
        if absolute and not steps:
            return [0]
        return _eval_steps(arena, ctx.env, start, steps)
    if op == "num":
        return node[1]
    if op == "str":
        return node[1]
    if op == "call":
        args = [_eval(a, ctx) for a in node[2]]
        return _call(node[1], args, ctx)
    if op == "or":
        return to_boolean(_eval(node[1], ctx)) or to_boolean(_eval(node[2], ctx))
    if op == "and":
        return to_boolean(_eval(node[1], ctx)) and to_boolean(_eval(node[2], ctx))
    if op in ("eq", "neq", "lt", "le", "gt", "ge"):
        return _cmp_values(arena, op, _eval(node[1], ctx), _eval(node[2], ctx))
    if op in ("add", "sub", "mul", "divf", "mod"):
        a = to_number(arena, _eval(node[1], ctx))
        b = to_number(arena, _eval(node[2], ctx))
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "divf":
            if b == 0:
                if a == 0 or math.isnan(a):
                    return math.nan
                return math.inf if a > 0 else -math.inf
            return a / b
        if b == 0 or math.isnan(a) or math.isnan(b) or math.isinf(a):
            return math.nan
        return math.fmod(a, b)
    if op == "neg":
        return -to_number(arena, _eval(node[1], ctx))
    if op == "union":
        a = _eval(node[1], ctx)
        b = _eval(node[2], ctx)
        if not isinstance(a, list) or not isinstance(b, list):
            raise QueryError.invalid_expression()
        seen = set()
        out = []
        for item in a + b:
            key = item if type(item) is int else (item[1], item[2])
            if key not in seen:
                seen.add(key)
                out.append(item)
        out.sort(key=_doc_key)
        return out
    if op == "filter":
        _, primary, preds, steps = node
        value = _eval(primary, ctx)
        if preds or steps:
            if not isinstance(value, list):
                raise QueryError.invalid_expression()
            items = value
            for pred in preds:
                size = len(items)
                kept = []
                for pos, cand in enumerate(items, 1):
                    v = _eval(pred, _Ctx(arena, ctx.env, cand, pos, size))
                    if isinstance(v, float):
                        if v == pos:
                            kept.append(cand)
                    elif to_boolean(v):
                        kept.append(cand)
                items = kept
            value = _eval_steps(arena, ctx.env, items, steps)
        return value
    raise QueryError.invalid_expression()


def evaluate(ast, arena: Arena, context_id: int, user_prefixes: dict | None = None):
    """Evaluate a compiled XPath against a context node.

    Returns a node-set (list of items), float, str, or bool."""
    env = build_ns_env(arena, context_id, user_prefixes or {})
    return _eval(ast, _Ctx(arena, env, context_id, 1, 1))


def recipe_value(ast, arena: Arena, prefixes: dict) -> str:
    """A named recipe query's column value over the whole document: a
    node-set's string-values joined by newlines in document order, a scalar
    stringified, "" when the query raises a ``FuziError`` (reference Q2)."""
    try:
        value = evaluate(ast, arena, arena.root, prefixes)
    except FuziError:
        return ""
    if isinstance(value, list):
        return "\n".join(string_value(arena, item) for item in value)
    return str(value)
