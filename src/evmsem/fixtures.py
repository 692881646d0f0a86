"""Fixture format: JSON scenarios binding a pre-state, a transaction, a block
header, optional expectations and checker parameters.

Addresses and words are 0x-prefixed lowercase hex; code is either a hex
string or {"asm": "<assembly text>"}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .bytecode import BYTE_TO_MNEMONIC, assemble, is_push, next_instr_pos
from .checkers import ScenarioSpace
from .state import Account, BlockHeader, GlobalState
from .transaction import Transaction, Receipt
from .words import (address_to_hex, bytes_to_hex, hex_to_address, hex_to_bytes,
                    hex_to_word, word_to_hex)


class FixtureError(ValueError):
    pass


@dataclass
class Fixture:
    name: str
    pre: GlobalState
    tx: Transaction
    header: BlockHeader
    ancestors: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    checker_params: dict = field(default_factory=dict)

    def space(self, relaxed_gas: bool = False) -> ScenarioSpace:
        """The scenario with the generator sets checker_params names;
        ScenarioSpace's defaults fill the rest."""
        p = self.checker_params
        sets = {name: p[key] for key, name in _SPACE_FIELDS.items() if key in p}
        return ScenarioSpace(pre=self.pre, tx=self.tx, header=self.header,
                             ancestors=self.ancestors, relaxed_gas=relaxed_gas, **sets)

    def contract(self):
        """The contract under analysis: (address, code). The code defaults to
        the account's pre-state code; contract_code overrides it for contracts
        that only come into existence during the scenario."""
        addr = self.checker_params.get("contract")
        if addr is None:
            raise FixtureError(f"{self.name}: checker_params.contract missing")
        code = self.checker_params.get("contract_code")
        if code is None:
            acct = self.pre.get(addr)
            code = acct.code if acct else b""
        return (addr, code)


# checker_params key -> the ScenarioSpace field it sets
_SPACE_FIELDS = {"components": "component_values", **{k: k for k in (
    "max_steps", "gas_values", "code_variants", "account_perturbations", "finpot_samples")}}

_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", int: "an integer"}


def _typed(value, kind: type, what: str):
    """value, which must be a JSON object (dict), array (list) or integer
    (int); parse_fixture reports the TypeError as a FixtureError."""
    if not isinstance(value, kind):
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

def _leaf(decode, encode):
    return (lambda v, what: decode(v)), encode


def _list(item):
    decode, encode = item
    return ((lambda v, what: [decode(x, what) for x in _typed(v, list, what)]),
            lambda v: [encode(x) for x in v])


def _map(key, item):
    (kdecode, kencode), (decode, encode) = key, item
    return ((lambda v, what: {kdecode(k, what): decode(x, what)
                              for k, x in _typed(v, dict, what).items()}),
            lambda v: {kencode(k): encode(x) for k, x in v.items()})


def _fields(table):
    """A JSON object whose keys in table are decoded by their codec; other
    keys pass through unchanged."""
    return ((lambda v, what: {k: table[k][0](x, k) if k in table else x
                              for k, x in _typed(v, dict, what).items()}),
            lambda v: {k: table[k][1](x) if k in table else x for k, x in v.items()})


def _positive(v, what):
    if _typed(v, int, what) <= 0:
        raise ValueError(f"{what} must be positive")
    return v


_NAME = _leaf(str, str)
_INT = (lambda v, what: _typed(v, int, what)), int
_WORD = _leaf(hex_to_word, word_to_hex)
_ADDRESS = _leaf(hex_to_address, address_to_hex)
_CODE = _leaf(_decode_code, bytes_to_hex)

_HEADER = {"parent": _WORD, "beneficiary": _ADDRESS, "difficulty": _WORD,
           "number": _WORD, "gaslimit": _WORD, "timestamp": _WORD}

_CHECKER_PARAMS = _fields({
    "contract": _ADDRESS,
    "contract_code": _CODE,
    "untrusted": _list(_ADDRESS),
    "allowed": _list(_ADDRESS),
    "gas_values": _list(_WORD),
    "components": _map(_NAME, _list(_WORD)),
    "code_variants": _map(_ADDRESS, _list(_CODE)),
    "account_perturbations": _fields({"balance_deltas": _list(_INT),
                                      "nonce_bumps": _list(_INT),
                                      "storage_set": _map(_WORD, _WORD)}),
    "max_steps": (_positive, int),
    "finpot_samples": _INT,
})

# the `expect` section; other keys ("status", "exists", verdict names) pass through
_EXPECT = _fields({
    "gas_used": _WORD,
    "logs": _INT,
    "created": ((lambda v, what: hex_to_address(v) if v else None),
                lambda v: None if v is None else address_to_hex(v)),
    "post": _map(_ADDRESS, _fields({"balance": _WORD, "nonce": _WORD, "code": _CODE,
                                    "storage": _map(_WORD, _WORD)})),
    "verdicts": _fields({}),
})


def _decode_header(obj) -> BlockHeader:
    _typed(obj, dict, "header")
    return BlockHeader(**{k: decode(obj.get(k, "0x0"), k)
                          for k, (decode, _) in _HEADER.items()})


def _encode_header(h: BlockHeader) -> dict:
    return {k: encode(getattr(h, k)) for k, (_, encode) in _HEADER.items()}


def parse_fixture(obj, name: str = "<fixture>") -> Fixture:
    if isinstance(obj, (str, Path)):
        path = Path(obj)
        name = path.stem
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise FixtureError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
        except RecursionError:
            raise FixtureError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise FixtureError(f"{name}: fixture must be a JSON object")

    try:
        accounts = {}
        for addr_hex, acct in _typed(obj.get("pre", {}), dict, "pre").items():
            _typed(acct, dict, f"pre[{addr_hex}]")
            storage = {hex_to_word(k): hex_to_word(v)
                       for k, v in _typed(acct.get("storage", {}), dict, "storage").items()
                       if hex_to_word(v) != 0}
            accounts[hex_to_address(addr_hex)] = Account(
                nonce=hex_to_word(acct.get("nonce", "0x0")),
                balance=hex_to_word(acct.get("balance", "0x0")),
                storage=storage,
                code=_decode_code(acct.get("code", "0x")),
            )
        pre = GlobalState(accounts)

        txo = _typed(obj["tx"], dict, "tx")
        tx_type = txo.get("type", "call")
        tx = Transaction(
            nonce=hex_to_word(txo.get("nonce", "0x0")),
            gas_price=hex_to_word(txo.get("gasprice", "0x0")),
            gas_limit=hex_to_word(txo["gaslimit"]),
            to=hex_to_address(txo["to"]) if "to" in txo else None,
            value=hex_to_word(txo.get("value", "0x0")),
            sender=hex_to_address(txo["sender"]),
            input=hex_to_bytes(txo.get("input", "0x")),
            type=tx_type,
        )

        header = _decode_header(obj.get("header", {}))
        ancestors = {hex_to_word(_typed(anc, dict, "ancestor")["hash"]): _decode_header(anc)
                     for anc in _typed(obj.get("ancestors", []), list, "ancestors")}
        params = _CHECKER_PARAMS[0](obj.get("checker_params", {}), "checker_params")

        expect = _EXPECT[0](obj.get("expect", {}), "expect")
        return Fixture(name=name, pre=pre, tx=tx, header=header,
                       ancestors=ancestors, expect=expect, checker_params=params)
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, FixtureError):
            raise
        raise FixtureError(f"{name}: {e}") from e


def fixture_to_json(f: Fixture) -> dict:
    pre = {}
    for addr, acct in sorted(f.pre.items()):
        pre[address_to_hex(addr)] = {
            "nonce": word_to_hex(acct.nonce),
            "balance": word_to_hex(acct.balance),
            "storage": {word_to_hex(k): word_to_hex(v)
                        for k, v in sorted(acct.storage.items())},
            "code": bytes_to_hex(acct.code),
        }
    txo = {
        "type": f.tx.type,
        "nonce": word_to_hex(f.tx.nonce),
        "gasprice": word_to_hex(f.tx.gas_price),
        "gaslimit": word_to_hex(f.tx.gas_limit),
        "value": word_to_hex(f.tx.value),
        "sender": address_to_hex(f.tx.sender),
        "input": bytes_to_hex(f.tx.input),
    }
    if f.tx.to is not None:
        txo["to"] = address_to_hex(f.tx.to)

    out = {"name": f.name, "pre": pre, "tx": txo, "header": _encode_header(f.header)}
    if f.ancestors:
        out["ancestors"] = [{"hash": word_to_hex(hash_), **_encode_header(h)}
                            for hash_, h in sorted(f.ancestors.items())]
    if f.expect:
        out["expect"] = _EXPECT[1](f.expect)
    if f.checker_params:
        out["checker_params"] = _CHECKER_PARAMS[1](f.checker_params)
    return out


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
    if "status" in exp and receipt.status != exp["status"]:
        problems.append(f"status: expected {exp['status']}, got {receipt.status}")
    if "gas_used" in exp and receipt.gas_used != exp["gas_used"]:
        problems.append(f"gas_used: expected {exp['gas_used']:#x}, got {receipt.gas_used:#x}")
    if "logs" in exp and len(receipt.logs) != exp["logs"]:
        problems.append(f"logs: expected {exp['logs']}, got {len(receipt.logs)}")
    if "created" in exp and receipt.created != exp["created"]:
        problems.append("created: expected %s, got %s" % tuple(
            a if a is None else address_to_hex(a) for a in (exp["created"], receipt.created)))
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
    i = 0
    while i < len(code):
        byte = code[i]
        if byte not in BYTE_TO_MNEMONIC and not is_push(byte):
            return f"unsupported opcode 0x{byte:02x} at offset {i}"
        i = next_instr_pos(i, byte)
    return None


def ingest_official_tests(directory) -> tuple:
    """Translate GeneralStateTest-style JSON files into fixtures.

    Returns (fixtures, skipped) where skipped is a list of (source, reason);
    untranslatable files never abort the batch.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory}: not a directory")
    fixtures = []
    skipped = []
    for path in sorted(directory.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, RecursionError) as e:
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
            except (KeyError, TypeError, ValueError) as e:
                skipped.append((src, f"untranslatable: {e}"))
    return fixtures, skipped


# the GeneralStateTest env name of each header field
_ENV_HEADER = {"parent": "previousHash", "beneficiary": "currentCoinbase",
               "difficulty": "currentDifficulty", "number": "currentNumber",
               "gaslimit": "currentGasLimit", "timestamp": "currentTimestamp"}


def _ingest_one(name: str, body: dict) -> Fixture:
    env = _typed(body["env"], dict, "env")
    txo = _typed(body["transaction"], dict, "transaction")
    sender = txo.get("sender")
    if not sender:
        raise FixtureError("no sender field (secretKey recovery unsupported)")

    pre_obj = {}
    for addr, acct in _typed(body["pre"], dict, "pre").items():
        _typed(acct, dict, f"pre[{addr}]")
        code = acct.get("code", "0x") or "0x"
        reason = _uses_unsupported_opcodes(hex_to_bytes(code))
        if reason:
            raise FixtureError(f"account {addr}: {reason}")
        pre_obj[addr] = {
            "nonce": acct.get("nonce", "0x0"),
            "balance": acct.get("balance", "0x0"),
            "code": code,
            "storage": acct.get("storage", {}),
        }

    def first(v):
        return v[0] if isinstance(v, list) else v

    to = txo.get("to", "")
    fixture_tx = {
        "type": "call" if to else "create",
        "nonce": txo.get("nonce", "0x0"),
        "gasprice": txo.get("gasPrice", "0x0"),
        "gaslimit": first(txo["gasLimit"]),
        "value": first(txo.get("value", "0x0")),
        "sender": sender,
        "input": first(txo.get("data", "0x")),
    }
    if to:
        fixture_tx["to"] = to

    header = {k: env[src] for k, src in _ENV_HEADER.items() if src in env}
    obj = {"pre": pre_obj, "tx": fixture_tx, "header": header}
    if "expect" in body and isinstance(body["expect"], dict):
        obj["expect"] = body["expect"]
    return parse_fixture(obj, name=name)
