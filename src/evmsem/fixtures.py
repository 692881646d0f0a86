"""Fixture format: JSON scenarios binding a pre-state, a transaction, a block
header, optional expectations and checker parameters.

Addresses and words are 0x-prefixed lowercase hex; code is either a hex
string or {"asm": "<assembly text>"}.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional

from .bytecode import BYTE_TO_MNEMONIC, assemble, instructions
from .checkers import CHECKERS, ScenarioSpace
from .state import Account, BlockHeader, GlobalState, account
from .transaction import Transaction, Receipt
from .words import address_to_hex, bytes_to_hex, hex_to_address, hex_to_bytes, hex_to_word


class FixtureError(ValueError):
    pass


class Fixture(NamedTuple):
    """A scenario and what it expects; its {} defaults are shared, never written."""
    name: str
    pre: GlobalState
    tx: Transaction
    header: BlockHeader
    ancestors: dict = {}
    expect: dict = {}
    checker_params: dict = {}

    def space(self) -> ScenarioSpace:
        """The scenario with the generator sets checker_params names;
        ScenarioSpace's defaults fill the rest."""
        p = self.checker_params
        sets = {name: p[key] for key, name in _SPACE_FIELDS.items() if key in p}
        return ScenarioSpace(pre=self.pre, tx=self.tx, header=self.header,
                             ancestors=self.ancestors, **sets)

    def contract(self):
        """The contract under analysis: (address, code). The code defaults to
        the account's pre-state code; contract_code overrides it for contracts
        that only come into existence during the scenario."""
        addr = self.checker_params.get("contract")
        if addr is None:
            raise FixtureError(f"{self.name}: checker_params.contract missing")
        code = self.checker_params.get("contract_code")
        if code is None:
            code = account(self.pre, addr).code
        return (addr, code)


# checker_params key -> the ScenarioSpace field it sets
_SPACE_FIELDS = {"components": "component_values",
                 **{k: k for k in ("max_steps", "gas_values", "code_variants")}}

_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", int: "an integer"}


def _typed(value, kind: type, what: str):
    """value, which must be a JSON object, array or integer (a JSON boolean is
    not one); parse_fixture reports the TypeError as a FixtureError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


def _decode_code(value) -> bytes:
    if isinstance(value, dict):
        if not isinstance(value.get("asm"), str):
            raise ValueError(f"a code object's 'asm' must be a string: {value!r}")
        return assemble(value["asm"])
    return hex_to_bytes(value)


# A codec is (decode(json_value, what), encode(value)); decoding raises
# TypeError or ValueError, which parse_fixture reports as a FixtureError.
# what labels the value by its path, as pre[0x..01].balance or gas_values[0].

_TOP = ("fixture", "flags")     # the labels of a whole fixture and of evmsem check's flags


def _at(what: str, key: str) -> str:
    """The label of key in the object labelled what; a top-level key goes by its name."""
    return key if what in _TOP else f"{what}.{key}"


def _leaf(decode, encode):
    """A codec of one JSON scalar; its errors name the value's label."""
    def read(v, what):
        try:
            return decode(v)
        except ValueError as e:
            raise ValueError(f"{what}: {e}") from e
    return read, encode


def _list(item):
    decode, encode = item
    return ((lambda v, what: [decode(x, f"{what}[{i}]")
                              for i, x in enumerate(_typed(v, list, what))]),
            lambda v: [encode(x) for x in v])


def _map(key, item, make=dict, sort=False):
    """A JSON object read into make(mapping); sort writes it in key order."""
    (kdecode, kencode), (decode, encode) = key, item
    return ((lambda v, what: make({kdecode(k, f"{what} key"): decode(x, f"{what}[{k}]")
                                   for k, x in _typed(v, dict, what).items()})),
            lambda v: {kencode(k): encode(x) for k, x in (sorted(v.items()) if sort else v.items())})


def _fields(table):
    """A JSON object whose keys in table are decoded by their codec; other
    keys pass through unchanged."""
    return ((lambda v, what: {k: table[k][0](x, _at(what, k)) if k in table else x
                              for k, x in _typed(v, dict, what).items()}),
            lambda v: {k: table[k][1](x) if k in table else x for k, x in v.items()})


_REQUIRED = object()    # the default of a key that must be given


def _record(make, table, names=None, parts=lambda record: record._asdict()):
    """A JSON object read as make(**fields) and written from parts(record). table maps
    each JSON key to (codec, the JSON an absent key reads as, or _REQUIRED); names maps a
    key to its field where the two differ. Other keys are ignored; None is not written."""
    keys = [(key, (names or {}).get(key, key), codec, default)
            for key, (codec, default) in table.items()]

    def decode(v, what):
        _typed(v, dict, what)
        fields = {}
        for key, name, (decode_field, _), default in keys:
            if key not in v and default is _REQUIRED:
                raise ValueError(f"{key} must be given in {what}")
            fields[name] = decode_field(v.get(key, default), _at(what, key))
        return make(**fields)

    def encode(record):
        values = parts(record)
        out = ((key, encode_field(values[name])) for key, name, (_, encode_field), _ in keys)
        return {key: x for key, x in out if x is not None}

    return decode, encode


def _one_of(*names):
    def decode(v, what):
        if v not in names:
            raise ValueError(f"{what} must be one of {', '.join(names)}, not {v!r}")
        return v
    return decode, str


def _max_steps(v, what):
    """A step budget, which must be a positive integer."""
    if _typed(v, int, what) < 1:
        raise ValueError(f"{what} must be positive")
    return v


_NAME = _leaf(str, str)
_INT = (lambda v, what: _typed(v, int, what)), int
_WORD = _leaf(hex_to_word, hex)
_ADDRESS = _leaf(hex_to_address, address_to_hex)
_OPTIONAL_ADDRESS = _leaf(lambda v: None if v is None else hex_to_address(v),
                          lambda v: None if v is None else address_to_hex(v))
_BYTES = _leaf(hex_to_bytes, bytes_to_hex)
_CODE = _leaf(_decode_code, bytes_to_hex)

_HEADER_KEYS = {"parent": (_WORD, "0x0"), "beneficiary": (_ADDRESS, "0x0"),
                "difficulty": (_WORD, "0x0"), "number": (_WORD, "0x0"),
                "gaslimit": (_WORD, "0x0"), "timestamp": (_WORD, "0x0")}

# an ancestor is a header and its hash, read as the pair (hash, header)
_ANCESTOR_LIST = _list(_record(lambda hash, **h: (hash, BlockHeader(**h)),
                               {"hash": (_WORD, _REQUIRED), **_HEADER_KEYS},
                               parts=lambda pair: {"hash": pair[0], **pair[1]._asdict()}))

# `pre` reads an absent account key as its default; `expect.post` checks
# only the keys it gives
_ACCOUNT_KEYS = {"nonce": (_WORD, "0x0"), "balance": (_WORD, "0x0"),
                 "storage": (_map(_WORD, _WORD, sort=True), {}), "code": (_CODE, "0x")}


def _pre_account(storage, **rest) -> Account:
    """Storage never holds a zero, so `pre` drops zero values."""
    return Account(storage={k: v for k, v in storage.items() if v}, **rest)


def _transaction(type, **fields) -> Transaction:
    """A transaction is a create exactly when it names no recipient; "type" must agree."""
    if type == "create" and fields["to"] is not None:
        raise ValueError("create transaction must not name a recipient")
    if type == "call" and fields["to"] is None:
        raise ValueError("call transaction needs a recipient")
    return Transaction(**fields)


_TX = _record(_transaction, {
    "type": (_one_of("call", "create"), "call"), "nonce": (_WORD, "0x0"),
    "gasprice": (_WORD, "0x0"), "gaslimit": (_WORD, _REQUIRED), "value": (_WORD, "0x0"),
    "sender": (_ADDRESS, _REQUIRED), "input": (_BYTES, "0x"), "to": (_OPTIONAL_ADDRESS, None),
}, names={"gasprice": "gas_price", "gaslimit": "gas_limit"},
    parts=lambda tx: {**tx._asdict(), "type": "create" if tx.to is None else "call"})

_CHECKER_PARAMS = _fields({
    "contract": _ADDRESS,
    "contract_code": _CODE,
    "untrusted": _list(_ADDRESS),
    "allowed": _list(_ADDRESS),
    "gas_values": _list(_WORD),
    "components": _map(_NAME, _list(_WORD)),
    "code_variants": _map(_ADDRESS, _list(_CODE)),
    "max_steps": (_max_steps, int),
    "mode": _one_of("direct", "theorem1"),
})

# the `expect` section; other keys (notes, "exists" in a post account) pass through
_EXPECT_KEYS = {
    "status": _one_of("success", "exception", "invalid"),
    "gas_used": _WORD,
    "logs": _INT,
    "created": _OPTIONAL_ADDRESS,
    "post": _map(_ADDRESS, _fields({k: codec for k, (codec, _) in _ACCOUNT_KEYS.items()})),
    "verdicts": _map(_one_of(*sorted(CHECKERS)), _one_of("holds", "violated")),
}

# the fixture's sections, read as Fixture's fields
_SECTIONS = _record(dict, {
    "pre": (_map(_ADDRESS, _record(_pre_account, _ACCOUNT_KEYS),
                 make=GlobalState, sort=True), {}),
    "tx": (_TX, _REQUIRED),
    "header": (_record(BlockHeader, _HEADER_KEYS), {}),
    "ancestors": (((lambda v, what: dict(_ANCESTOR_LIST[0](v, what))),
                   lambda v: _ANCESTOR_LIST[1](sorted(v.items()))), []),
    "expect": (_fields(_EXPECT_KEYS), {}),
    "checker_params": (_CHECKER_PARAMS, {}),
})


def parse_fixture(obj, name: str = "<fixture>") -> Fixture:
    if isinstance(obj, (str, Path)):
        path = Path(obj)
        name = path.stem
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise FixtureError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
        except OSError as e:
            raise FixtureError(f"{path}: {e.strerror or e}") from None
        except UnicodeDecodeError as e:
            raise FixtureError(f"{path}: {e}") from None
        except RecursionError:
            raise FixtureError(f"{path}: JSON nested too deeply") from None
    try:
        return Fixture(name=name, **_SECTIONS[0](obj, "fixture"))
    except (TypeError, ValueError) as e:
        raise FixtureError(f"{name}: {e}") from e


def fixture_to_json(f: Fixture) -> dict:
    """The fixture's JSON; an empty section is left out."""
    return {"name": f.name, **{k: v for k, v in _SECTIONS[1](f).items() if v}}


def corpus_dir() -> Path:
    """The shipped scenario corpus: JSON fixtures installed as package data."""
    return Path(__file__).parent / "corpus"


def load_corpus() -> list:
    return [parse_fixture(p) for p in sorted(corpus_dir().glob("*.json"))]


def check_expectations(f: Fixture, sigma: GlobalState, receipt: Receipt) -> list:
    """Compare an execution result against the fixture's `expect` section;
    returns a list of human-readable mismatches (empty = match)."""
    problems = []
    exp = f.expect
    got = {"status": receipt.status, "gas_used": receipt.gas_used,
           "logs": len(receipt.logs), "created": receipt.created}
    for key, value in got.items():
        if key in exp and exp[key] != value:
            encode = _EXPECT_KEYS[key][1]
            want, have = ("null" if v is None else encode(v) for v in (exp[key], value))
            problems.append(f"{key}: expected {want}, got {have}")
    for addr, want in exp.get("post", {}).items():
        name = address_to_hex(addr)
        acct = sigma.get(addr)
        if want.get("exists") is False:
            if acct is not None:
                problems.append(f"{name}: expected deleted, still present")
            continue
        if acct is None:
            problems.append(f"{name}: expected present, account missing")
            continue
        for key in ("balance", "nonce"):
            if key in want and getattr(acct, key) != want[key]:
                problems.append(f"{name}.{key}: expected {want[key]:#x},"
                                f" got {getattr(acct, key):#x}")
        if "code" in want and acct.code != want["code"]:
            problems.append(f"{name}.code mismatch")
        for k, v in want.get("storage", {}).items():
            if acct.storage_get(k) != v:
                problems.append(f"{name}.storage[{k:#x}]: expected {v:#x},"
                                f" got {acct.storage_get(k):#x}")
    return problems


# ---------------------------------------------------------------------------
# best-effort ingestion of GeneralStateTest-style JSON


def _uses_unsupported_opcodes(code: bytes) -> Optional[str]:
    for i in instructions(code):
        if code[i] not in BYTE_TO_MNEMONIC:
            return f"unsupported opcode 0x{code[i]:02x} at offset {i}"
    return None


def ingest_official_tests(directory) -> tuple:
    """Translate GeneralStateTest-style JSON files into fixtures.

    Returns (fixtures, skipped) where skipped is a list of (source, reason);
    untranslatable files never abort the batch.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory}: not a directory")
    fixtures, skipped = [], []
    for path in sorted(directory.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            skipped.append((str(path), f"unreadable: {e}"))
            continue
        if not isinstance(doc, dict):
            skipped.append((str(path), "untranslatable: top level must be a JSON object"))
            continue
        for test_name, body in doc.items():
            src = f"{path.name}::{test_name}"
            try:
                fixtures.append(_ingest_one(test_name, body))
            except FixtureError as e:
                skipped.append((src, str(e)))
            except (LookupError, TypeError, ValueError) as e:
                skipped.append((src, f"untranslatable: {e}"))
    return fixtures, skipped


# the GeneralStateTest name of each header field (in env) and tx key
_ENV_HEADER = {"parent": "previousHash", "beneficiary": "currentCoinbase",
               "difficulty": "currentDifficulty", "number": "currentNumber",
               "gaslimit": "currentGasLimit", "timestamp": "currentTimestamp"}
_GST_TX = {"nonce": "nonce", "gasprice": "gasPrice", "gaslimit": "gasLimit", "value": "value",
           "sender": "sender", "input": "data", "to": "to"}


def _ingest_one(name: str, body: dict) -> Fixture:
    env = _typed(body["env"], dict, "env")
    txo = _typed(body["transaction"], dict, "transaction")
    if not txo.get("sender"):
        raise FixtureError("no sender field (secretKey recovery unsupported)")

    pre = {}
    for addr, acct in _typed(body["pre"], dict, "pre").items():
        code = _typed(acct, dict, f"pre[{addr}]").get("code") or "0x"
        reason = _uses_unsupported_opcodes(hex_to_bytes(code))
        if reason:
            raise FixtureError(f"account {addr}: {reason}")
        pre[addr] = {**acct, "code": code}

    # data, gasLimit and value are lists, indexed by the test's variants: take the first
    tx = {key: txo[src][0] if isinstance(txo[src], list) else txo[src]
          for key, src in _GST_TX.items() if src in txo}
    tx["to"] = tx.get("to") or None
    tx["type"] = "call" if tx["to"] else "create"

    header = {k: env[src] for k, src in _ENV_HEADER.items() if src in env}
    obj = {"pre": pre, "tx": tx, "header": header}
    if "expect" in body and isinstance(body["expect"], dict):
        obj["expect"] = body["expect"]
    return parse_fixture(obj, name=name)
