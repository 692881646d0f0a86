"""Executable small-step EVM semantics with gas-exact accounting and
trace-based security checkers."""

from .bytecode import assemble, disassemble, disassemble_text, valid_jump_dests
from .checkers import (ScenarioSpace, Verdict, check_account_state_independence,
                       check_atomicity, check_call_integrity, check_call_restriction,
                       check_code_independence, check_effect_independence,
                       check_env_independence, check_fuelled_calls,
                       check_single_entrancy, check_stack_limit_compliance)
from .keccak import keccak256, keccak256_bytes
from .rlp import fresh_address, rlp_encode_pair
from .semantics import (BudgetExhausted, MalformedConfiguration, StepOutcome, run,
                        run_with_local_updates, step)
from .state import (Account, BlockHeader, ExecutionEnvironment, Frame, GlobalState,
                    Halt, MachineState, Regular, TransactionEffects,
                    TransactionEnvironment, EXC)
from .traces import Action, calls_of, project
from .transaction import Receipt, Transaction, execute_transaction, t_final, t_init
from .words import Address, Word256, binop, signed, unsigned

__version__ = "0.1.0"
