import random
from dataclasses import replace

import pytest

from indexify.cli import default_builders
from indexify.garden import (BuilderConfig, build_garden, harvest_int_pool, harvest_seeds,
                             load_gardens)
from indexify.iot import REGISTRY, BuiltinOp, GardenDim, memoise_all
from indexify.lang.ast import STR, Value, mk_int
from indexify.lang.parser import parse
from indexify.lang.typecheck import typecheck
from indexify.rewrite import RewriteConfig

FIG5_GARDEN_TEXT = "0\tstr\tfoobar\n1\tstr\toobar\n2\tstr\tbar\n3\tstr\too\n"

FIG4A_SOURCE = """\
int main() {
  str s1;
  str s2;
  symbolic s1;
  puts(s1);
  s2 = strcat("a", "foo");
  if (strstr(s1, "bar")) {
    return 1;
  }
  return 0;
}
"""


@pytest.fixture
def fig5_gardens():
    return load_gardens(FIG5_GARDEN_TEXT)


@pytest.fixture
def fig5_strstr(fig5_gardens):
    return memoise_all(fig5_gardens, {"strstr"})["i_strstr"]


@pytest.fixture
def fig4a_program():
    return typecheck(parse(FIG4A_SOURCE))


def build_cfg(program, f_plus, *, k=1, maxlen=4, int_pool=None, gardens=None,
              tag=STR) -> RewriteConfig:
    """The rewrite configuration of a run that indexes the type tag (str by
    default) with the operators f_plus indexed: tables over the given
    gardens, or over a garden grown from the program's harvested seeds by
    the CLI's default builders, and over the given int pool or the
    program's."""
    if gardens is None:
        bcfg = BuilderConfig(builders=default_builders(f_plus, {tag}), k=k, max_str_len=maxlen)
        gardens = build_garden(harvest_seeds(program, {tag}), bcfg, types={tag})
    pool = harvest_int_pool(program) if int_pool is None else int_pool
    return RewriteConfig({tag}, set(f_plus), gardens, memoise_all(gardens, f_plus, pool))


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def eval_builtin(name: str, args) -> Value:
    """The registry's builtin name applied to Values."""
    return REGISTRY[name].eval(*args)


def value_for(dim, key) -> Value:
    """The Value a table dimension's key component stands for: a garden
    index's value, or the int of a pool dimension."""
    return dim.imap.value_at(key) if isinstance(dim, GardenDim) else mk_int(key)


KERNEL = "kernel"  # what a recording op appends for a whole-table kernel call


def recording(op, calls: list) -> BuiltinOp:
    """A copy of the builtin op whose fn appends each call's arguments, as
    prepared, to calls, and whose whole-table kernel, if it has one,
    appends KERNEL."""

    def fn(*args):
        calls.append(args)
        return op.fn(*args)

    def tabulate(*columns):
        calls.append(KERNEL)
        return op.tabulate(*columns)

    return replace(op, fn=fn, tabulate=None if op.tabulate is None else tabulate)
