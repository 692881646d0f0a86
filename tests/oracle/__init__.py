"""The interpreter core as it stood before the rule-table rewrite (with the
SELFDESTRUCT ordering fix), frozen as a differential oracle."""
