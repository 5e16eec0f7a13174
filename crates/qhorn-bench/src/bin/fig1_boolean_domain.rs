//! E1 / Fig. 1: the data → Boolean domain transformation on the
//! chocolate-shop example, plus the inverse synthesis direction.

use qhorn_core::BoolTuple;
use qhorn_relation::datasets::chocolates;
use qhorn_relation::synthesize::Synthesizer;
use qhorn_relation::value::Value;

fn main() {
    let bridge = chocolates::booleanizer();
    println!("## E1 (Fig. 1): transforming data into the Boolean domain\n");
    println!("schema: {}", chocolates::schema());
    for (i, p) in bridge.props().iter().enumerate() {
        println!("x{} ↦ {p}", i + 1);
    }
    println!();

    let rel = chocolates::fig1_boxes();
    for obj in &rel.objects {
        let name = match obj.attrs.get(0) {
            Value::Str(s) => s.clone(),
            _ => unreachable!(),
        };
        println!("Box {name:?}:");
        for t in &obj.tuples {
            let bits = bridge.booleanize_tuple(t).unwrap();
            println!("  {t}  →  {bits}");
        }
        let boolean = bridge.booleanize_object(obj).unwrap();
        println!("  Boolean object (deduplicated): {boolean}\n");
    }

    println!("## Inverse direction: synthesizing a chocolate for each Boolean class\n");
    let hints = chocolates::hints();
    let synth = Synthesizer::new(&bridge, &hints);
    for mask in 0u8..8 {
        let bits: String = (0..3)
            .map(|i| if mask & (1 << i) != 0 { '1' } else { '0' })
            .collect();
        let bt = BoolTuple::from_bits(&bits);
        match synth.synthesize_tuple(&bt) {
            Ok(t) => println!("  {bits}  →  {t}"),
            Err(e) => println!("  {bits}  →  unrealizable: {e}"),
        }
    }
}
