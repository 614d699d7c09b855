"""An innovative service with no standardised type (browsable only).

Stands for §2.2's "being the first pays most" provider: nobody has agreed
a StockQuotes service type, there is nothing to register at a trader —
the SID has *no* ``COSM_TraderExport`` — yet any generic client can use it
the moment it registers at a browser.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.core.service_runtime import ServiceRuntime
from repro.rpc.server import RpcServer
from repro.sidl.builder import load_service_description

STOCK_QUOTES_SIDL = """
module StockQuotes {
  typedef Quote_t struct {
    string symbol;
    float bid;
    float ask;
    long volume;
  };
  typedef SymbolList_t sequence<string>;
  typedef QuoteList_t sequence<Quote_t>;
  interface COSM_Operations {
    SymbolList_t ListSymbols();
    Quote_t GetQuote(in string symbol);
    QuoteList_t GetQuotes(in SymbolList_t symbols);
  };
  module COSM_Annotations {
    annotation GetQuote "Current bid/ask for one symbol.";
    annotation StockQuotes "Innovative quote feed; no standard type yet.";
  };
};
"""


class StockQuotesImpl:
    """Deterministic synthetic quotes (seeded)."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._quotes: Dict[str, Dict[str, Any]] = {}
        for symbol in ("DAI", "SIE", "VOW", "BAS", "ALV"):
            base = round(rng.uniform(20.0, 400.0), 2)
            self._quotes[symbol] = {
                "symbol": symbol,
                "bid": base,
                "ask": round(base * 1.01, 2),
                "volume": rng.randrange(1_000, 100_000),
            }
        self.requests = 0

    def ListSymbols(self) -> List[str]:
        return sorted(self._quotes)

    def GetQuote(self, symbol: str) -> Dict[str, Any]:
        self.requests += 1
        if symbol not in self._quotes:
            raise KeyError(f"unknown symbol {symbol!r}")
        return dict(self._quotes[symbol])

    def GetQuotes(self, symbols: List[str]) -> List[Dict[str, Any]]:
        return [self.GetQuote(symbol) for symbol in symbols]


def start_stock_quotes(server: RpcServer, **runtime_options: Any) -> ServiceRuntime:
    sid = load_service_description(STOCK_QUOTES_SIDL)
    return ServiceRuntime(server, sid, StockQuotesImpl(), **runtime_options)
